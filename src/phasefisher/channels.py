"""Quantum operations of the lossy interferometer.

Photon loss acts independently on each arm through the standard bosonic
attenuation Kraus family

    K_k = sqrt((1 - eta)^k / k!) eta^{n/2} a^k,   k = 0 .. n_max,

truncated exactly at the cutoff (a^k annihilates everything above it). The
implementation exploits the band structure of K_k: each two-mode Kraus pair
maps basis state |n1, n2> to the single state |n1 - k1, n2 - k2>, so the
channel only ever moves weight downward. apply_loss maps the support of its
input to the downward closure of that support and works on the block over
it, which keeps the dominant inputs here (states supported on a few hundred
basis states) cheap without any state-specific assumptions.

The virtual beam-splitter construction (couple each arm to a vacuum
environment mode, evolve with exp[theta (a^dag b - a b^dag)], trace the
environment) is retained as an independent cross-check of the Kraus route.

Phase averaging over an unknown common phase is exactly a dephasing between
total-photon-number sectors, implemented by masking rather than quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionMismatch, InvalidEta, TruncationTooSmall
from .fock_core import DensityOperator, FockTruncation

TWO_ARM = "two_arm"
SINGLE_ARM = "single_arm"

# rank cutoff when feeding mixed states through the beam-splitter model
_EIGENVALUE_RANK_TOL = 1e-14


@dataclass(frozen=True)
class LossChannel:
    """Equal-arm photon loss with transmittance eta."""

    eta: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.eta <= 1.0:
            raise InvalidEta(f"transmittance must lie in [0, 1], got {self.eta}")

    def kraus_operators(self, trunc: FockTruncation) -> list[np.ndarray]:
        """Single-mode Kraus matrices; sum K^dag K = identity at the cutoff."""
        d = trunc.dim_single
        bands = _loss_bands(self.eta, d)
        ops = []
        for k, band in enumerate(bands):
            mat = np.zeros((d, d), dtype=complex)
            mat[np.arange(d - k), np.arange(k, d)] = band
            ops.append(mat)
        return ops


@dataclass(frozen=True)
class PhaseGenerator:
    """Diagonal phase-shift generator on the two-mode space."""

    kind: str
    diagonal: np.ndarray
    truncation: FockTruncation

    def __post_init__(self) -> None:
        if self.kind not in (TWO_ARM, SINGLE_ARM):
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.diagonal.shape != (self.truncation.dim,):
            raise ValueError("generator diagonal does not match the truncation")
        self.diagonal.setflags(write=False)

    @property
    def matrix(self) -> np.ndarray:
        return np.diag(self.diagonal.astype(complex))


def two_arm_generator(trunc: FockTruncation) -> PhaseGenerator:
    """G = (n1 - n2)/2, the antisymmetric phase between the arms."""
    n1, n2 = trunc.occupations()
    return PhaseGenerator(TWO_ARM, (n1 - n2) / 2.0, trunc)


def single_arm_generator(trunc: FockTruncation) -> PhaseGenerator:
    """G = n1, a phase on one arm only; needs a reference to differ from two_arm."""
    n1, _ = trunc.occupations()
    return PhaseGenerator(SINGLE_ARM, n1.astype(float), trunc)


def _loss_bands(eta: float, d: int) -> list[np.ndarray]:
    """bands[k][a] = <a| K_k |a + k>, the only nonzero entries of K_k."""
    bands = [eta ** (np.arange(d) / 2.0)]
    for k in range(1, d):
        a = np.arange(d - k, dtype=float)
        bands.append(bands[k - 1][: d - k] * np.sqrt((1.0 - eta) * (a + k) / k))
    return bands


def _downward_closure(occ: np.ndarray) -> np.ndarray:
    """States reachable from occ by removing photons from either mode."""
    c = np.logical_or.accumulate(occ[::-1, :], axis=0)[::-1, :]
    return np.logical_or.accumulate(c[:, ::-1], axis=1)[:, ::-1]


def apply_loss(rho: DensityOperator, eta: float) -> DensityOperator:
    """Equal transmittance eta on both modes, trace preserving and completely positive."""
    LossChannel(eta)
    if eta == 1.0:
        return rho
    trunc = rho.truncation
    d = trunc.dim_single
    in_n1, in_n2 = np.divmod(rho.support, d)
    occ = np.zeros((d, d), dtype=bool)
    occ[in_n1, in_n2] = True
    # pair (k1, k2) moves some occupied state iff an occupied (n1 >= k1, n2 >= k2)
    # exists, which is the same suffix condition the closure encodes
    closure = _downward_closure(occ)
    out_support = np.flatnonzero(closure)
    out_pos = np.full(d * d, -1, dtype=int)
    out_pos[out_support] = np.arange(out_support.size)

    bands = _loss_bands(eta, d)
    acc = np.zeros((out_support.size, out_support.size), dtype=complex)
    for k1 in range(int(in_n1.max()) + 1):
        for k2 in range(int(in_n2.max()) + 1):
            if not closure[k1, k2]:
                continue
            src = np.flatnonzero((in_n1 >= k1) & (in_n2 >= k2))
            w = bands[k1][in_n1[src] - k1] * bands[k2][in_n2[src] - k2]
            dst = out_pos[(in_n1[src] - k1) * d + in_n2[src] - k2]
            acc[np.ix_(dst, dst)] += (w[:, None] * w[None, :]) * rho.block[np.ix_(src, src)]
    return DensityOperator(out_support, acc, trunc)


def phase_average(rho: DensityOperator) -> DensityOperator:
    """Dephase between total-photon sectors.

    Averaging a common phase theta over [0, 2pi) kills every matrix element
    between basis states of different n1 + n2 and leaves the rest untouched;
    the masking below is that integral done exactly. Idempotent.
    """
    tot = rho.truncation.totals()[rho.support]
    mask = tot[:, None] == tot[None, :]
    return DensityOperator(rho.support, np.where(mask, rho.block, 0.0), rho.truncation)


def apply_phase(rho: DensityOperator, phi: float, gen: PhaseGenerator) -> DensityOperator:
    """Conjugate by exp(-i phi G). Spectrum and trace are untouched."""
    if gen.truncation != rho.truncation:
        raise DimensionMismatch(
            f"state cutoff {rho.truncation} vs generator cutoff {gen.truncation}"
        )
    u = np.exp(-1j * phi * gen.diagonal[rho.support])
    return DensityOperator(rho.support, np.outer(u, u.conj()) * rho.block, rho.truncation)


def bs_pair_unitary(d_signal: int, d_env: int, eta: float) -> np.ndarray:
    """exp[theta (a^dag b - a b^dag)] with cos(theta) = sqrt(eta).

    Acts on (signal, env) with the signal index major. Sends |alpha>|0> to
    |sqrt(eta) alpha>|-sqrt(1-eta) alpha> up to cutoff leakage.
    """
    # scipy is imported here so that only the beam-splitter cross-check pays for it
    import scipy.linalg

    LossChannel(eta)
    a_sig = np.diag(np.sqrt(np.arange(1.0, d_signal)), 1)
    a_env = np.diag(np.sqrt(np.arange(1.0, d_env)), 1)
    theta = np.arccos(np.sqrt(eta))
    coupling = np.kron(a_sig.T, a_env) - np.kron(a_sig, a_env.T)
    return scipy.linalg.expm(theta * coupling)


def apply_loss_via_bs(
    rho: DensityOperator, eta: float, env_n_max: int | None = None
) -> DensityOperator:
    """Loss through explicit vacuum environments, then a partial trace.

    Each signal mode is coupled to its own environment mode (cutoff
    env_n_max, defaulting to the signal cutoff) by bs_pair_unitary, and the
    environments are traced out. Agrees with apply_loss up to environment
    truncation; a trace deficit beyond 1e-9 raises TruncationTooSmall.
    """
    LossChannel(eta)
    trunc = rho.truncation
    ds = trunc.dim_single
    de = (env_n_max if env_n_max is not None else trunc.n_max) + 1
    v = bs_pair_unitary(ds, de, eta)

    dense = rho.matrix
    w, vecs = np.linalg.eigh(dense)
    out = np.zeros_like(dense)
    for i in range(len(w)):
        if w[i] < _EIGENVALUE_RANK_TOL:
            continue
        four = np.zeros((ds, ds, de, de), dtype=complex)
        four[:, :, 0, 0] = vecs[:, i].reshape(ds, ds)
        # couple mode 1 to env 3: bring axes to (n1, n3 | n2, n4)
        four = four.transpose(0, 2, 1, 3).reshape(ds * de, ds * de)
        four = (v @ four).reshape(ds, de, ds, de)
        # couple mode 2 to env 4: axes currently (n1, n3, n2, n4)
        four = four.transpose(2, 3, 0, 1).reshape(ds * de, ds * de)
        four = (v @ four).reshape(ds, de, ds, de)
        # axes now (n2, n4, n1, n3); regroup to (signal pair, env pair)
        signal_env = four.transpose(2, 0, 3, 1).reshape(ds * ds, de * de)
        out += w[i] * (signal_env @ signal_env.conj().T)

    deficit = abs(float(np.trace(out).real) - 1.0)
    if deficit > 1e-9:
        raise TruncationTooSmall(
            f"environment cutoff {de - 1} leaks trace {deficit:.3e}; raise env_n_max"
        )
    return DensityOperator.from_dense(out, trunc)
