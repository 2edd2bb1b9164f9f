"""Probe states and their scalar descriptors.

The entangled coherent state (ECS) used throughout is

    |ECS> = N (|alpha>|0> + |0>|alpha>),   N = 1/sqrt(2 (1 + e^{-|alpha|^2})),

a path superposition of one coherent pulse against vacuum. Projected onto
total-photon sectors it is a weighted family of NOON states
(|n>|0> + |0>|n>)/sqrt(2), which is what makes the NOON benchmark the natural
comparison. All closed forms downstream depend on alpha only through
|alpha|^2; the CLI restricts alpha to real nonnegative values while the
library accepts complex amplitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .exceptions import NoConvergence, TruncationTooSmall, check_eta
from .fock_core import (
    DEFAULT_TAIL_TOL,
    FockTruncation,
    StateVector,
    coherent_vector,
)

ALPHA_SOLVE_ATOL = 1e-10
_MAX_SOLVE_ITERATIONS = 200


def _libm(fn, x, *args):
    """fn(x, *args) for a float, and element by element for a 1-D array.

    fn is a math function or the float pow, so an array element gets the
    bits the float code gets. numpy's exp, log and power round differently
    from glibc's math.exp, math.log and pow in up to a few percent of
    inputs, which would move the last digit of sweep CSV cells; numpy is
    used only for + - * / and sqrt, which are correctly rounded in both.
    """
    if isinstance(x, np.ndarray):
        return np.fromiter(map(fn, x.tolist(), *map(repeat, args)), float, x.size)
    return fn(x, *args)


@dataclass(frozen=True)
class ProbeSpec:
    """Declarative probe description: which family, how strong, how lossy."""

    family: str
    eta: float
    alpha: complex = 0.0
    n: int = 0

    def __post_init__(self) -> None:
        if self.family not in ("ecs", "noon"):
            raise ValueError(f"family must be 'ecs' or 'noon', got {self.family!r}")
        check_eta(self.eta)
        if self.family == "ecs" and not 0.0 < abs(self.alpha) < math.inf:
            raise ValueError(f"ECS probe needs finite |alpha| > 0, got {self.alpha}")
        if self.family == "noon" and self.n < 1:
            raise ValueError(f"NOON probe needs n >= 1, got {self.n}")


def ecs_normalization(alpha: complex) -> float:
    return _normalization(abs(alpha) ** 2)


def _normalization(a2):
    # N as a function of |alpha|^2, a float or an array
    return 1.0 / _libm(math.sqrt, 2.0 * (1.0 + _libm(math.exp, -a2)))


def mean_photon_number(alpha: complex) -> float:
    """N_bar = 2 N^2 |alpha|^2, approaching |alpha|^2 for strong fields."""
    return 2.0 * ecs_normalization(alpha) ** 2 * abs(alpha) ** 2


def ecs_vector(
    alpha: complex, trunc: FockTruncation, tail_tol: float = DEFAULT_TAIL_TOL
) -> StateVector:
    """Two-mode ECS amplitudes at the given cutoff.

    Uses the analytic normalization rather than renormalizing numerically,
    so overlaps with NOON states equal sqrt(2) N c_n exactly; the norm
    deficit is bounded by the coherent tail tolerance.
    """
    c = coherent_vector(alpha, trunc, tail_tol)
    vac = np.zeros(trunc.dim_single, dtype=complex)
    vac[0] = 1.0
    amp = ecs_normalization(alpha) * (np.kron(c, vac) + np.kron(vac, c))
    return StateVector(amp, trunc)


def noon_vector(n: int, trunc: FockTruncation) -> StateVector:
    """(|n,0> + |0,n>)/sqrt(2)."""
    if n < 1:
        raise ValueError(f"NOON index must be >= 1, got {n}")
    if n > trunc.n_max:
        raise TruncationTooSmall(f"NOON index {n} above cutoff {trunc.n_max}")
    amp = np.zeros(trunc.dim, dtype=complex)
    s = 1.0 / math.sqrt(2.0)
    amp[trunc.index(n, 0)] = s
    amp[trunc.index(0, n)] = s
    return StateVector(amp, trunc)


def ecs_sector_weights(
    alpha: complex, trunc: FockTruncation, tail_tol: float = DEFAULT_TAIL_TOL
) -> np.ndarray:
    """weights[n] is the trace of the total-photon-n block of the dephased ECS.

    The vacuum component appears in both branches of the superposition, so
    weights[0] = 4 N^2 |c_0|^2 while every n >= 1 carries 2 N^2 |c_n|^2.
    """
    c2 = np.abs(coherent_vector(alpha, trunc, tail_tol)) ** 2
    weights = 2.0 * ecs_normalization(alpha) ** 2 * c2
    weights[0] *= 2.0  # both branches hit vacuum; their amplitudes add coherently
    return weights


def _mean_photon_and_logistic(a):
    # mean_photon_number(a) = a^2 s for the logistic s = 1/(1 + e^{-a^2})
    a2 = a * a
    s = 1.0 / (1.0 + _libm(math.exp, -a2))
    return a2 * s, s


def _solve_tolerance(targets):
    # the doubles around a target past 2^17 are coarser than ALPHA_SOLVE_ATOL
    return np.maximum(ALPHA_SOLVE_ATOL, 4.0 * _libm(math.ulp, targets))


def solve_alpha(targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real alpha >= 0 with mean_photon_number(alpha) = target, for each target.

    The mean photon number is strictly increasing in alpha and bounded by
    alpha^2, so the root lies in [0, sqrt(target) + 2]. Bisection gets
    within 1e-6, then Newton steps polish until the mean photon number is
    within max(ALPHA_SOLVE_ATOL, 4 ulp(target)) of the target; a step out
    of the bracket falls back to its midpoint. Each row stops on its own,
    so every row takes the steps it would take alone.

    Returns (alpha, converged); converged is False where a target is not
    positive or the polish did not reach the tolerance.
    """
    targets = np.asarray(targets, dtype=float)
    with np.errstate(all="ignore"):
        lo = np.zeros_like(targets)
        hi = np.sqrt(targets) + 2.0
        active = np.ones(targets.shape, dtype=bool)
        for _ in range(_MAX_SOLVE_ITERATIONS):
            mid = 0.5 * (lo + hi)
            below = _mean_photon_and_logistic(mid)[0] < targets
            lo = np.where(active & below, mid, lo)
            hi = np.where(active & ~below, mid, hi)
            active &= ~(hi - lo < 1e-6)
            if not np.count_nonzero(active):
                break
        tol = _solve_tolerance(targets)
        a = 0.5 * (lo + hi)
        active = targets > 0.0
        for _ in range(_MAX_SOLVE_ITERATIONS):
            value, s = _mean_photon_and_logistic(a)
            active &= ~(np.abs(value - targets) <= tol)
            if not np.count_nonzero(active):
                break
            slope = 2.0 * a * s * (1.0 + a * a * (1.0 - s))
            step = a - (value - targets) / slope
            # Newton overshot the bracket; fall back to its midpoint
            step = np.where((step < lo) | (step > hi), 0.5 * (lo + hi), step)
            a = np.where(active, step, a)
    return a, ~active & (targets > 0.0)


def alpha_for_mean_photon(target_n: float) -> float:
    """Real alpha >= 0 with mean_photon_number(alpha) = target_n; see solve_alpha."""
    if target_n <= 0.0:
        raise ValueError(f"target mean photon number must be positive, got {target_n}")
    alpha, converged = solve_alpha(np.array([target_n]))
    if not converged[0]:
        tol = float(_solve_tolerance(target_n))
        raise NoConvergence(f"alpha solve for target {target_n} did not reach {tol}")
    return float(alpha[0])
