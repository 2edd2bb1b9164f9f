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
basis states) cheap without any state-specific assumptions. The Kraus sum
is evaluated for all (k1, k2) pairs at once, in bounded chunks of
consecutive terms; every output entry still receives its terms in the
row-major (k1, k2) order of the plain double loop over pairs, so the result
is the loop's to the bit, whatever the chunking.

The virtual beam-splitter construction (couple each arm to a vacuum
environment mode, evolve with exp[theta (a^dag b - a b^dag)], trace the
environment) is retained as an independent cross-check of the Kraus route.

Phase averaging over an unknown common phase is exactly a dephasing between
total-photon-number sectors, implemented by masking rather than quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import TruncationTooSmall, check_eta
from .fock_core import DensityOperator, FockTruncation

TWO_ARM = "two_arm"
SINGLE_ARM = "single_arm"

# Kraus-sum terms apply_loss evaluates at once (more only if one row of a pair is longer)
LOSS_CHUNK_TERMS = 1 << 16


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


def two_arm_generator(trunc: FockTruncation) -> PhaseGenerator:
    """G = (n1 - n2)/2, the antisymmetric phase between the arms."""
    n1, n2 = trunc.occupations()
    return PhaseGenerator(TWO_ARM, (n1 - n2) / 2.0, trunc)


def single_arm_generator(trunc: FockTruncation) -> PhaseGenerator:
    """G = n1, a phase on one arm only; needs a reference to differ from two_arm."""
    n1, _ = trunc.occupations()
    return PhaseGenerator(SINGLE_ARM, n1.astype(float), trunc)


def _loss_table(eta: float, d: int) -> np.ndarray:
    """table[k, a] = <a| K_k |a + k> for a + k < d: the bands of K_k on the first d Fock states.

    Row k is row k - 1 times sqrt((1 - eta)(a + k) / k). Entries with
    a + k >= d are never read; each is still a binomial amplitude, at most
    1, so none overflows.
    """
    a = np.arange(d, dtype=float)
    k = np.arange(1, d)[:, None]
    return np.cumprod(np.vstack([eta ** (a / 2.0), np.sqrt((1.0 - eta) * (a + k) / k)]), axis=0)


def _downward_closure(occ: np.ndarray) -> np.ndarray:
    """States reachable from occ by removing photons from either mode."""
    c = np.logical_or.accumulate(occ[::-1, :], axis=0)[::-1, :]
    return np.logical_or.accumulate(c[:, ::-1], axis=1)[:, ::-1]


def _incidences(
    n1: np.ndarray, n2: np.ndarray, d: int, out_support: np.ndarray, eta: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every (pair, source) incidence of the Kraus sum, grouped pair by pair.

    Source s (occupations n1[s], n2[s]) is moved by every pair k1 <= n1[s],
    k2 <= n2[s]. A stable sort on the pair's basis index puts the pairs in
    row-major (k1, k2) order and keeps the sources ascending within a pair.
    Returns per incidence: source position, Kraus weight, output position,
    the pair's source count, and the position of the pair's first incidence.
    Kept apart from _kraus_sum so that its temporaries are freed before the
    terms are accumulated.
    """
    per_src = (n1 + 1) * (n2 + 1)
    src = np.repeat(np.arange(n1.size), per_src)
    local = np.arange(src.size) - np.repeat(np.cumsum(per_src) - per_src, per_src)
    k1, k2 = np.divmod(local, n2[src] + 1)
    order = np.argsort(k1 * d + k2, kind="stable")
    src, k1, k2 = src[order], k1[order], k2[order]
    a1, a2 = n1[src] - k1, n2[src] - k2
    # no pair or output state reaches past the largest occupation in the support
    table = _loss_table(eta, int(max(n1.max(), n2.max())) + 1)
    pair = np.searchsorted(out_support, k1 * d + k2)
    group = np.bincount(pair)
    return (
        src,
        table[k1, a1] * table[k2, a2],
        np.searchsorted(out_support, a1 * d + a2),
        group[pair],
        (np.cumsum(group) - group)[pair],
    )


def _kraus_sum(
    block: np.ndarray,
    n1: np.ndarray,
    n2: np.ndarray,
    d: int,
    out_support: np.ndarray,
    eta: float,
) -> np.ndarray:
    """Accumulate every term of the Kraus sum into the block over the output support.

    Incidence i is the row of one term per incidence of its pair: term t of
    incidence i pairs it with incidence t - skip[i]. np.add.at adds the
    terms in array order, so each output entry receives them pair by pair.
    """
    src, w, dst, size, first = _incidences(n1, n2, d, out_support, eta)
    ends = np.cumsum(size)
    skip = ends - size - first
    n_out = out_support.size
    acc = np.zeros((n_out, n_out), dtype=complex)
    flat = acc.reshape(-1)
    start = 0
    while start < src.size:
        done = ends[start - 1] if start else 0
        stop = max(int(np.searchsorted(ends, done + LOSS_CHUNK_TERMS, side="right")), start + 1)
        row = np.repeat(np.arange(start, stop), size[start:stop])
        col = np.arange(done, ends[stop - 1]) - skip[row]
        np.add.at(flat, dst[row] * n_out + dst[col], (w[row] * w[col]) * block[src[row], src[col]])
        start = stop
    return acc


def apply_loss(rho: DensityOperator, eta: float) -> DensityOperator:
    """Equal transmittance eta on both modes, trace preserving and completely positive.

    The output is sum_{k1, k2} (K_k1 x K_k2) rho (K_k1 x K_k2)^dag. Pair
    (k1, k2) moves every occupied state with n1 >= k1 and n2 >= k2, so the
    pairs that move anything are the downward closure of the support,
    which is also the output support. Each term (pair, source row, source
    column) gets its weight and output index, and the terms are accumulated
    in the order of a double loop over the pairs, in chunks of at most
    LOSS_CHUNK_TERMS terms (or one row of a pair, if longer).
    """
    check_eta(eta)
    if eta == 1.0:
        return rho
    trunc = rho.truncation
    d = trunc.dim_single
    n1, n2 = np.divmod(rho.support, d)
    occ = np.zeros((d, d), dtype=bool)
    occ[n1, n2] = True
    out_support = np.flatnonzero(_downward_closure(occ))
    acc = _kraus_sum(rho.block, n1, n2, d, out_support, eta)
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


def bs_pair_unitary(d: int, eta: float) -> np.ndarray:
    """exp[theta (a^dag b - a b^dag)] with cos(theta) = sqrt(eta), both modes on d states.

    Acts on (signal, env) with the signal index major. Sends |alpha>|0> to
    |sqrt(eta) alpha>|-sqrt(1-eta) alpha> up to cutoff leakage. The
    generator conserves the total photon number, also after truncation (the
    SU(2) structure of the lossless beam splitter; Campos, Saleh and Teich,
    Phys. Rev. A 40, 1371 (1989)), so each total-number block is exp(-iH)
    for the Hermitian H = i theta (a^dag b - a b^dag) on it, from one eigh.
    """
    check_eta(eta)
    a = np.diag(np.sqrt(np.arange(1.0, d)), 1)
    h = 1j * np.arccos(np.sqrt(eta)) * (np.kron(a.T, a) - np.kron(a, a.T))
    totals = np.add.outer(np.arange(d), np.arange(d)).ravel()
    u = np.zeros((d * d, d * d), dtype=complex)
    for n in range(2 * d - 1):
        block = np.ix_(totals == n, totals == n)
        w, v = np.linalg.eigh(h[block])
        u[block] = (v * np.exp(-1j * w)) @ v.conj().T
    return u


def apply_loss_via_bs(rho: DensityOperator, eta: float) -> DensityOperator:
    """Loss through explicit vacuum environments, then a partial trace.

    Each signal mode is coupled to its own vacuum environment by
    bs_pair_unitary, whose vacuum-environment column gives the Kraus
    operators K_e[a, n] = <a, e|U|n, 0> of one mode. Tracing the environment
    out is the one-mode channel (a, a') <- (n, n') = sum_e K_e x conj(K_e),
    applied to both modes as two products on rho regrouped so that rows are
    (n1, n1') and columns (n2, n2'). The environment shares the signal
    cutoff, which is exact: a mode holding at most n_max photons can lose
    at most n_max. A trace deficit beyond 1e-9 (roundoff only) raises
    TruncationTooSmall.
    """
    check_eta(eta)
    trunc = rho.truncation
    d = trunc.dim_single
    kraus = bs_pair_unitary(d, eta)[:, ::d].reshape(d, d, d)  # axes (a, e, n)
    channel = np.einsum("aen,bem->abnm", kraus, kraus.conj()).reshape(d * d, d * d)

    def regroup(m: np.ndarray) -> np.ndarray:
        # (n1, n2 | n1', n2') <-> (n1, n1' | n2, n2'); its own inverse
        return m.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)

    out = regroup(channel @ regroup(rho.matrix) @ channel.T)
    deficit = abs(float(np.trace(out).real) - 1.0)
    if deficit > 1e-9:
        raise TruncationTooSmall(
            f"beam-splitter route leaks trace {deficit:.3e} at cutoff {trunc.n_max}"
        )
    return DensityOperator.from_dense(out, trunc)
