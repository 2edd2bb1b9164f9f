"""Probe states and their scalar descriptors.

The entangled coherent state (ECS) used throughout is

    |ECS> = N (|alpha>|0> + |0>|alpha>),   N = 1/sqrt(2 (1 + e^{-|alpha|^2})),

a path superposition of one coherent pulse against vacuum. Projected onto
total-photon sectors it is a weighted family of NOON states
(|n>|0> + |0>|n>)/sqrt(2), which is what makes the NOON benchmark the natural
comparison. All closed forms downstream depend on alpha only through
|alpha|^2: the CLI takes any real alpha with 0 < |alpha| < inf (a negative
one gives the numbers of -alpha), and the library complex amplitudes too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .exceptions import TruncationTooSmall, check_eta
from .fock_core import FockTruncation, StateVector, coherent_vector


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


def ecs_vector(alpha: complex, trunc: FockTruncation) -> StateVector:
    """Two-mode ECS amplitudes at the given cutoff.

    Uses the analytic normalization rather than renormalizing numerically,
    so overlaps with NOON states equal sqrt(2) N c_n exactly; the norm
    deficit is bounded by coherent_vector's tail gate.
    """
    c = coherent_vector(alpha, trunc)
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


def ecs_sector_weights(alpha: complex, trunc: FockTruncation) -> np.ndarray:
    """weights[n] is the trace of the total-photon-n block of the dephased ECS.

    The vacuum component appears in both branches of the superposition, so
    weights[0] = 4 N^2 |c_0|^2 while every n >= 1 carries 2 N^2 |c_n|^2.
    """
    c2 = np.abs(coherent_vector(alpha, trunc)) ** 2
    weights = 2.0 * ecs_normalization(alpha) ** 2 * c2
    weights[0] *= 2.0  # both branches hit vacuum; their amplitudes add coherently
    return weights


def solve_alpha(targets: np.ndarray) -> np.ndarray:
    """Real alpha >= 0 with mean_photon_number(alpha) = target, for each target.

    Solved for u = |alpha|^2: the mean photon number is N(u) = u/(1 + e^{-u}),
    so u - N = N e^{-u} puts the root in the bracket (N, 2N] at every scale.
    Newton steps on u start from N (1 + e^{-N}); a step that leaves the
    bracket falls back to its midpoint, and the bracket closes in on the
    side the sign of N(u) - N shows. A row stops once N(u) - N is 0 or its
    next iterate equals the current one, so every row takes the steps it
    would take alone. The bracket shrinks at every step that does not stop,
    so every row stops.

    Raises ValueError unless every target is positive and finite.
    """
    targets = np.asarray(targets, dtype=float)
    bad = ~((targets > 0.0) & (targets < math.inf))
    if bad.any():
        raise ValueError(
            f"target mean photon number must be positive and finite, got {targets[bad][0]}"
        )
    # past 8.99e307 the bracket's top overflows, but e^{-N} = 0 there and u = N stops at once
    with np.errstate(over="ignore"):
        lo, hi = targets, 2.0 * targets
        u = targets * (1.0 + _libm(math.exp, -targets))
        active = np.ones(targets.shape, dtype=bool)
        while active.any():
            e = _libm(math.exp, -u)
            d = 1.0 + e
            # N(u) - N = ((u - N) - N e)/d, and u - N is exact on the bracket
            miss = ((u - targets) - targets * e) / d
            lo = np.where(miss < 0.0, u, lo)
            hi = np.where(miss > 0.0, u, hi)
            newton = u - miss * d * d / (d + u * e)
            inside = ((lo < newton) & (newton < hi)) | (newton == u)
            step = np.where(inside, newton, 0.5 * (lo + hi))
            active &= (miss != 0.0) & (step != u)
            u = np.where(active, step, u)
    return np.sqrt(u)


def alpha_for_mean_photon(target_n: float) -> float:
    """Real alpha >= 0 with mean_photon_number(alpha) = target_n; see solve_alpha."""
    return float(solve_alpha(np.array([target_n]))[0])
