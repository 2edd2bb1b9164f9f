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
    return 1.0 / math.sqrt(2.0 * (1.0 + math.exp(-(abs(alpha) ** 2))))


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


def _mean_photon_and_slope(a: float) -> tuple[float, float]:
    # s is a logistic in a^2, so the slope has the closed form below
    s = 1.0 / (1.0 + math.exp(-(a * a)))
    value = a * a * s
    slope = 2.0 * a * s * (1.0 + a * a * (1.0 - s))
    return value, slope


def alpha_for_mean_photon(target_n: float) -> float:
    """Real alpha >= 0 with mean_photon_number(alpha) = target_n.

    The mean photon number is strictly increasing in alpha and bounded by
    alpha^2, so the root lies in [0, sqrt(target_n) + 2]. Bisection gets
    close, a few Newton steps polish to ALPHA_SOLVE_ATOL.
    """
    if target_n <= 0.0:
        raise ValueError(f"target mean photon number must be positive, got {target_n}")
    lo, hi = 0.0, math.sqrt(target_n) + 2.0
    for _ in range(_MAX_SOLVE_ITERATIONS):
        mid = 0.5 * (lo + hi)
        if _mean_photon_and_slope(mid)[0] < target_n:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-6:
            break
    a = 0.5 * (lo + hi)
    for _ in range(_MAX_SOLVE_ITERATIONS):
        value, slope = _mean_photon_and_slope(a)
        if abs(value - target_n) <= ALPHA_SOLVE_ATOL:
            return a
        step = (value - target_n) / slope
        a -= step
        if a < lo or a > hi:  # Newton overshot the bracket; fall back to its midpoint
            a = 0.5 * (lo + hi)
    raise NoConvergence(f"alpha solve for target {target_n} did not reach {ALPHA_SOLVE_ATOL}")
