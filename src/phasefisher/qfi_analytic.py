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

Each closed form has one body that takes a float or an array. _curves runs
them along an array of mean photon numbers, and it is the one route every
N-curve reads: the sweep's rows, the crossing grid and its bisection. A
float runs on math alone; numpy is imported where an array is built.

Every quantity here is validated against the brute-force oracle in
qfi_oracle; the spectral coefficients additionally against a numeric
eigensolve of the two-level matrix.
"""

from __future__ import annotations

import math

from .exceptions import (
    InvalidEta,
    NonpositiveFisher,
    NumericalOverflow,
    _in_double_range,
    _record,
    check_eta,
)
from .states import _libm, _normalization, ecs_normalization, ecs_sector_weights, solve_alpha

# the typing module's constant, without importing typing on the closed-form path
TYPE_CHECKING = False
if TYPE_CHECKING:
    import numpy as np

    from .fock_core import FockTruncation

# No code in the package reads this. It is the minor-eigenvalue weight below which
# acceptance gate a02 skips a point and the spectral-route tests drop the cross term.
GAMMA_MINUS_FLOOR = 1e-14


class QFIResult(_record("QFIResult", "value")):
    """A Fisher information value, checked to be finite and nonnegative."""

    __slots__ = ()

    def __new__(cls, value: float) -> QFIResult:
        if not math.isfinite(value):
            raise NumericalOverflow(f"QFI is {value!r}: inputs beyond double precision")
        if value < 0.0:
            raise ValueError(f"QFI must be nonnegative, got {value}")
        return super().__new__(cls, value)


class EcsLossySpectrum(_record("EcsLossySpectrum", "p p_perp det_sigma gamma_plus gamma_minus")):
    """Exact two-level spectral data of the lossy ECS with a reference beam.

    p is the overlap <Psi_1|Psi_2>, p_perp the surviving coherence weight.
    gamma_plus >= gamma_minus are the eigenvalues, det_sigma their product.
    """

    __slots__ = ()


@_in_double_range
def qfi_ecs_noref(alpha: complex, eta: float) -> QFIResult:
    """Sector-resolved QFI of the lossy ECS without a reference beam."""
    check_eta(eta)
    a2 = abs(alpha) ** 2
    if a2 == 0.0 or eta == 0.0:
        return QFIResult(0.0)
    return QFIResult(_noref(a2, eta))


def _noref(a2, eta):
    # qfi_ecs_noref at |alpha|^2 = a2 > 0, a float or an array
    nsq = _libm(pow, _normalization(a2), 2)
    return 2.0 * nsq * _libm(math.exp, -a2 * (1.0 - eta)) * (a2 * a2 * eta * eta + a2 * eta)


@_in_double_range
def qfi_ecs_noref_blocksum(alpha: complex, eta: float, trunc: FockTruncation) -> QFIResult:
    """Same quantity as an explicit sum of lossy NOON terms over sectors.

    Each total-photon sector n contributes weight(n) * n^2 eta^n; the sum
    telescopes into qfi_ecs_noref, which the tests pin to 1e-10.
    """
    check_eta(eta)
    a2 = abs(alpha) ** 2
    if a2 == 0.0 or eta == 0.0:
        return QFIResult(0.0)
    import numpy as np

    weights = ecs_sector_weights(alpha, trunc)
    n = np.arange(len(weights), dtype=float)
    value = float(np.sum(weights * n * n * eta**n))
    return QFIResult(value)


@_in_double_range
def qfi_noon(n: int, eta: float) -> QFIResult:
    """F = n^2 eta^n for the lossy NOON probe, Heisenberg-limited at eta = 1.

    Squared from n eta^{n/2}, so a subnormal eta^n cannot cut F's digits.
    """
    check_eta(eta)
    if n < 1:
        raise ValueError(f"NOON index must be >= 1, got {n}")
    return QFIResult((n * eta ** (n / 2)) ** 2)


@_in_double_range
def qfi_noon_continuous(n_mean: float, eta: float) -> float:
    """NOON benchmark with the photon number treated as a real variable.

    Sweeps and crossing searches interpolate F(N) = N^2 e^{N ln eta}; the
    exact logarithm matters once N is large enough that (eta - 1) N would
    misplace the decay.
    """
    check_eta(eta)
    if not 0.0 < n_mean < math.inf:
        raise ValueError(f"mean photon number must be positive and finite, got {n_mean}")
    if eta == 0.0:
        return 0.0
    return QFIResult(_noon(n_mean, eta)).value


def _noon(n_mean, eta):
    # qfi_noon_continuous at eta > 0 for a float or an array of n_mean
    return n_mean * n_mean * _libm(math.exp, n_mean * math.log(eta))


@_in_double_range
def sigma_spectrum(alpha: complex, eta: float) -> EcsLossySpectrum:
    """Exact spectral data of the lossy ECS under a reference beam.

    With q = p p_perp = e^{-|alpha|^2}, the trace-one determinant relation
    of a 2x2 density matrix gives 1 - 4 det = r^2 for r = (p + p_perp)/(1 + q),
    because (1 + q)^2 - (1 - p^2)(1 - p_perp^2) = (p + p_perp)^2. So
    gamma_pm = (1 +/- r)/2, with gamma_minus = (1 - p)(1 - p_perp)/(2 (1 + q));
    no value is a difference of nearly equal terms. The numeric two-level
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
    return EcsLossySpectrum(
        p=p,
        p_perp=p_perp,
        det_sigma=det,
        gamma_plus=0.5 * (1.0 + r),
        gamma_minus=one_minus_p * -math.expm1(-(1.0 - eta) * a2) / (2.0 * one_plus_q),
    )


@_in_double_range
def basis_overlap_matrix(alpha: complex, eta: float) -> np.ndarray:
    """The two-level density matrix in the Gram-Schmidt orthonormal basis.

    Entry (2, 2) is N^2 (1 - p^2) with no coherence factor: the cross terms
    of the mixture vanish on the orthogonal complement of |Psi_1>, and the
    trace must come out one. The numeric reconstruction in qfi_oracle checks
    every entry.
    """
    check_eta(eta)
    a2 = abs(alpha) ** 2
    nsq = ecs_normalization(alpha) ** 2
    p = math.exp(-eta * a2)
    p_perp = math.exp(-(1.0 - eta) * a2)
    off = (p + p_perp) * math.sqrt(-math.expm1(-2.0 * eta * a2))
    import numpy as np

    return nsq * np.array(
        [
            [1.0 + 2.0 * p * p_perp + p * p, off],
            [off, -math.expm1(-2.0 * eta * a2)],
        ]
    )


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
        return QFIResult(0.0)
    return QFIResult(_ref(a2, eta))


def _ref(a2, eta):
    # qfi_ecs_ref at |alpha|^2 = a2, a float or an array
    x = eta * a2
    q = _libm(math.exp, -a2)
    p_perp2 = _libm(math.exp, -2.0 * (1.0 - eta) * a2)
    return x / (1.0 + q) + x * (x * (q + p_perp2)) / _libm(pow, 1.0 + q, 2)


@_in_double_range
def qfi_ecs_ref_asymptotic(alpha: complex, eta: float) -> QFIResult:
    """Large-field limit of qfi_ecs_ref, valid once p = e^{-eta |alpha|^2} is negligible."""
    check_eta(eta)
    a2 = abs(alpha) ** 2
    if a2 == 0.0 or eta == 0.0:
        return QFIResult(0.0)
    return QFIResult(_ref_asymptotic(a2, eta))


def _ref_asymptotic(a2, eta):
    # qfi_ecs_ref_asymptotic at |alpha|^2 = a2 > 0, a float or an array
    nsq = _libm(pow, _normalization(a2), 2)
    return 2.0 * nsq * (_libm(math.exp, -2.0 * a2 * (1.0 - eta)) * a2 * a2 * eta * eta + a2 * eta)


def _curves(n_mean: np.ndarray, eta: float) -> np.ndarray:
    """Rows alpha, F_noref, F_ref, F_ref_asym and F_noon along an array of N.

    The one array route of every N-curve: sweep rows, the crossing grid and
    its bisection. Each entry is bit for bit what alpha_for_mean_photon and
    the public scalar function give at that N, for finite N > 0 and
    0 < eta <= 1, which are not checked here. No pow or exp in the route can
    overflow there; a product beyond the double range puts inf or nan in
    its column, for the caller to report.
    """
    import numpy as np

    with np.errstate(all="ignore"):
        alpha = solve_alpha(n_mean)
        a2 = _libm(pow, alpha, 2)
        return np.stack(
            [alpha, _noref(a2, eta), _ref(a2, eta), _ref_asymptotic(a2, eta), _noon(n_mean, eta)]
        )


def sensitivity(fisher: float, repetitions: int = 1) -> float:
    """Cramer-Rao phase uncertainty (m F)^{-1/2} in radians, for finite F > 0 and m >= 1 (NaN is neither)."""
    if not fisher > 0.0:
        raise NonpositiveFisher(f"sensitivity needs F > 0, got {fisher}")
    if fisher == math.inf:
        raise NumericalOverflow(f"sensitivity needs a finite F, got {fisher}")
    if not repetitions >= 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    return (repetitions * fisher) ** -0.5
