"""Closed-form quantum Fisher information of the lossy probes.

Two measurement scenarios are covered for the entangled coherent state.

Without a phase reference the probe dephases into total-photon sectors; the
sector-resolved information is a weighted sum of lossy NOON contributions
and collapses to the compact form

    F_noref = 2 N^2 e^{-|alpha|^2 (1 - eta)} (|alpha|^4 eta^2 + |alpha|^2 eta).

With a reference beam the lossy ECS stays a rank-two mixture of the
nonorthogonal pair |Psi_1> = |sqrt(eta) alpha, 0>, |Psi_2> = |0, sqrt(eta)
alpha>. Its spectrum is worked out exactly in a Gram-Schmidt basis (overlap
p = e^{-eta |alpha|^2}, coherence p_perp = e^{-(1-eta)|alpha|^2}). Fed to
the two-level mixed-state QFI formula (Liu et al., J. Phys. A 53, 023001
(2020))

    F = 4 (g+ Var+ + g- Var- - 4 g+ g- |<g+|G|g->|^2),

it reduces to a closed form with no subtraction; the tests keep the
spectral route as its reference.

Every quantity here is validated against the brute-force oracle in
qfi_oracle; the spectral coefficients additionally against a numeric
eigensolve of the two-level matrix.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    InvalidEta,
    InvalidWeights,
    NonpositiveFisher,
    NumericalOverflow,
    check_eta,
)
from .fock_core import FockTruncation
from .states import ecs_normalization, ecs_sector_weights

CLOSED_FORM = "closed_form"
ASYMPTOTIC = "asymptotic"
NUMERIC = "numeric"

# below this weight the minor eigenvalue carries no cross term worth keeping
GAMMA_MINUS_FLOOR = 1e-14


@dataclass(frozen=True)
class QFIResult:
    """A Fisher information value plus how it was obtained."""

    value: float
    method: str
    generator: str = "two_arm"

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise NumericalOverflow(f"QFI is {self.value!r}: inputs beyond double precision")
        if self.value < 0.0:
            raise ValueError(f"QFI must be nonnegative, got {self.value}")


@dataclass(frozen=True)
class EcsLossySpectrum:
    """Exact two-level spectral data of the lossy ECS with a reference beam.

    p is the overlap <Psi_1|Psi_2>, p_perp the surviving coherence weight.
    The eigenstates expand as |g+> = c_plus |Psi_1> + d_minus |Psi_2> and
    |g-> = c_minus |Psi_1> + d_plus |Psi_2> over the nonorthogonal pair.
    """

    p: float
    p_perp: float
    det_sigma: float
    gamma_plus: float
    gamma_minus: float
    zeta_plus: float
    zeta_minus: float
    c_plus: float
    c_minus: float
    d_plus: float
    d_minus: float
    sigma3_expect: float


def _in_double_range(closed_form):
    """Report a float overflow inside closed_form as NumericalOverflow.

    A division by a quantity that underflowed to zero (1 - p^2 once
    eta |alpha|^2 is below the smallest double) is the same overflow.
    """

    @functools.wraps(closed_form)
    def checked(*args, **kwargs):
        try:
            return closed_form(*args, **kwargs)
        except (OverflowError, ZeroDivisionError) as exc:
            raise NumericalOverflow(
                f"{closed_form.__name__} overflows double precision at {args or kwargs}: {exc}"
            ) from exc

    return checked


@_in_double_range
def qfi_ecs_noref(alpha: complex, eta: float) -> QFIResult:
    """Sector-resolved QFI of the lossy ECS without a reference beam."""
    check_eta(eta)
    a2 = abs(alpha) ** 2
    if a2 == 0.0 or eta == 0.0:
        return QFIResult(0.0, CLOSED_FORM)
    nsq = ecs_normalization(alpha) ** 2
    value = 2.0 * nsq * math.exp(-a2 * (1.0 - eta)) * (a2 * a2 * eta * eta + a2 * eta)
    return QFIResult(value, CLOSED_FORM)


def qfi_ecs_noref_blocksum(alpha: complex, eta: float, trunc: FockTruncation) -> QFIResult:
    """Same quantity as an explicit sum of lossy NOON terms over sectors.

    Each total-photon sector n contributes weight(n) * n^2 eta^n; the sum
    telescopes into qfi_ecs_noref, which the tests pin to 1e-10.
    """
    check_eta(eta)
    a2 = abs(alpha) ** 2
    if a2 == 0.0 or eta == 0.0:
        return QFIResult(0.0, CLOSED_FORM)
    weights = ecs_sector_weights(alpha, trunc)
    n = np.arange(len(weights), dtype=float)
    value = float(np.sum(weights * n * n * eta**n))
    return QFIResult(value, CLOSED_FORM)


@_in_double_range
def qfi_noon(n: int, eta: float) -> QFIResult:
    """F = n^2 eta^n for the lossy NOON probe, Heisenberg-limited at eta = 1."""
    check_eta(eta)
    if n < 1:
        raise ValueError(f"NOON index must be >= 1, got {n}")
    return QFIResult(n * n * eta**n, CLOSED_FORM)


def qfi_noon_continuous(n_mean: float, eta: float) -> float:
    """NOON benchmark with the photon number treated as a real variable.

    Sweeps and crossing searches interpolate F(N) = N^2 e^{N ln eta}; the
    exact logarithm matters once N is large enough that (eta - 1) N would
    misplace the decay.
    """
    check_eta(eta)
    if n_mean <= 0.0:
        raise ValueError(f"mean photon number must be positive, got {n_mean}")
    if eta == 0.0:
        return 0.0
    return n_mean * n_mean * math.exp(n_mean * math.log(eta))


@_in_double_range
def sigma_spectrum(alpha: complex, eta: float) -> EcsLossySpectrum:
    """Exact spectral data of the lossy ECS under a reference beam.

    With q = p p_perp = e^{-|alpha|^2}, the trace-one determinant relation
    of a 2x2 density matrix gives 1 - 4 det = r^2 for r = (p + p_perp)/(1 + q),
    because (1 + q)^2 - (1 - p^2)(1 - p_perp^2) = (p + p_perp)^2. So
    gamma_pm = (1 +/- r)/2, with gamma_minus = (1 - p)(1 - p_perp)/(2 (1 + q)),
    and the eigenvector weights collapse to zeta_pm = sqrt((1 +/- p)/2); no
    value is a difference of nearly equal terms. The numeric two-level
    eigensolve in qfi_oracle arbitrates these forms.
    """
    check_eta(eta)
    a2 = abs(alpha) ** 2
    if a2 == 0.0:
        raise ValueError("spectrum undefined at alpha = 0")
    if eta == 0.0:
        raise InvalidEta("spectrum undefined at eta = 0: both branches collapse to vacuum")
    nsq = ecs_normalization(alpha) ** 2
    p = math.exp(-eta * a2)
    p_perp = math.exp(-(1.0 - eta) * a2)
    one_plus_q = 1.0 + math.exp(-a2)
    one_minus_p = -math.expm1(-eta * a2)
    det = nsq * nsq * -math.expm1(-2.0 * eta * a2) * -math.expm1(-2.0 * (1.0 - eta) * a2)
    r = (p + p_perp) / one_plus_q
    d_minus = 1.0 / math.sqrt(2.0 * (1.0 + p))
    d_plus = 1.0 / math.sqrt(2.0 * one_minus_p)
    return EcsLossySpectrum(
        p=p,
        p_perp=p_perp,
        det_sigma=det,
        gamma_plus=0.5 * (1.0 + r),
        gamma_minus=one_minus_p * -math.expm1(-(1.0 - eta) * a2) / (2.0 * one_plus_q),
        zeta_plus=math.sqrt(0.5 * (1.0 + p)),
        zeta_minus=math.sqrt(0.5 * one_minus_p),
        c_plus=d_minus,
        c_minus=-d_plus,
        d_plus=d_plus,
        d_minus=d_minus,
        sigma3_expect=p * r,
    )


def basis_overlap_matrix(alpha: complex, eta: float) -> np.ndarray:
    """The two-level density matrix in the Gram-Schmidt orthonormal basis.

    Entry (2, 2) is N^2 (1 - p^2) with no coherence factor: the cross terms
    of the mixture vanish on the orthogonal complement of |Psi_1>, and the
    trace must come out one. The numeric reconstruction in qfi_oracle checks
    every entry.
    """
    a2 = abs(alpha) ** 2
    nsq = ecs_normalization(alpha) ** 2
    p = math.exp(-eta * a2)
    p_perp = math.exp(-(1.0 - eta) * a2)
    off = (p + p_perp) * math.sqrt(-math.expm1(-2.0 * eta * a2))
    return nsq * np.array(
        [
            [1.0 + 2.0 * p * p_perp + p * p, off],
            [off, -math.expm1(-2.0 * eta * a2)],
        ]
    )


def qfi_two_level(
    gamma_plus: float,
    gamma_minus: float,
    variance_plus: float,
    variance_minus: float,
    cross_term_sq: float,
) -> float:
    """Mixed-state QFI of a rank-two state with the given spectral data.

    F = 4 (g+ Var+ + g- Var- - 4 g+ g- |cross|^2). Variances are taken in
    the full space, so leakage of G out of the rank-two support is already
    inside Var+/-. When the minor weight is below GAMMA_MINUS_FLOOR the
    cross term is dropped rather than multiplied out, avoiding 0 * inf.
    """
    if gamma_plus < 0.0 or gamma_minus < 0.0 or gamma_plus + gamma_minus > 1.0 + 1e-12:
        raise InvalidWeights(f"weights ({gamma_plus}, {gamma_minus}) invalid")
    value = 4.0 * (gamma_plus * variance_plus + gamma_minus * variance_minus)
    if gamma_minus >= GAMMA_MINUS_FLOOR:
        value -= 16.0 * gamma_plus * gamma_minus * cross_term_sq
    return value


@_in_double_range
def qfi_ecs_ref(alpha: complex, eta: float) -> QFIResult:
    """QFI of the lossy ECS when a reference beam fixes the sum phase.

    The two-level formula over sigma_spectrum, with the generator moments
    <Psi_1|G|Psi_1> = -<Psi_2|G|Psi_2> = x/2 and <Psi_i|G^2|Psi_i> =
    (x + x^2)/4 of the nonorthogonal pair (x = eta |alpha|^2, both cross
    matrix elements zero), reduces exactly to

        F = x/(1 + q) + x^2 (q + p_perp^2)/(1 + q)^2,    q = e^{-|alpha|^2}.

    Every term is positive, so F keeps full precision wherever it fits in a
    double; x^2 is never formed alone, so it cannot overflow before F does.
    """
    check_eta(eta)
    a2 = abs(alpha) ** 2
    if a2 == 0.0 or eta == 0.0:
        return QFIResult(0.0, CLOSED_FORM)
    x = eta * a2
    q = math.exp(-a2)
    p_perp2 = math.exp(-2.0 * (1.0 - eta) * a2)
    value = x / (1.0 + q) + x * (x * (q + p_perp2)) / (1.0 + q) ** 2
    return QFIResult(value, CLOSED_FORM)


@_in_double_range
def qfi_ecs_ref_asymptotic(alpha: complex, eta: float) -> QFIResult:
    """Large-field limit of qfi_ecs_ref, valid once p = e^{-eta |alpha|^2} is negligible."""
    check_eta(eta)
    a2 = abs(alpha) ** 2
    if a2 == 0.0 or eta == 0.0:
        return QFIResult(0.0, ASYMPTOTIC)
    nsq = ecs_normalization(alpha) ** 2
    value = 2.0 * nsq * (math.exp(-2.0 * a2 * (1.0 - eta)) * a2 * a2 * eta * eta + a2 * eta)
    return QFIResult(value, ASYMPTOTIC)


def sensitivity(fisher: float, repetitions: int = 1) -> float:
    """Cramer-Rao phase uncertainty (m F)^{-1/2} in radians."""
    if fisher <= 0.0:
        raise NonpositiveFisher(f"sensitivity needs F > 0, got {fisher}")
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    return 1.0 / math.sqrt(repetitions * fisher)
