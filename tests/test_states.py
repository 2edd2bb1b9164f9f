"""Probe constructions and their scalar descriptors."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from phasefisher.exceptions import InvalidEta, NoConvergence, TruncationTooSmall
from phasefisher.fock_core import FockTruncation, coherent_vector
from phasefisher.qfi_oracle import _ecs_cutoff
from phasefisher.states import (
    ALPHA_SOLVE_ATOL,
    ProbeSpec,
    alpha_for_mean_photon,
    ecs_normalization,
    ecs_sector_weights,
    ecs_vector,
    mean_photon_number,
    noon_vector,
    solve_alpha,
)

# frozen at first light against direct evaluation of the defining formulas
ECS_NORM_ALPHA1 = 0.6045901829462685
MEAN_PHOTONS_ALPHA1 = 0.7310585786300049


def test_normalization_frozen_value():
    assert ecs_normalization(1.0) == pytest.approx(ECS_NORM_ALPHA1, rel=1e-15)


def test_normalization_limits():
    # overlapping branches at alpha -> 0, orthogonal branches at large alpha
    assert ecs_normalization(0.0) == pytest.approx(0.5, rel=1e-15)
    assert ecs_normalization(6.0) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)


def test_mean_photon_frozen_value():
    assert mean_photon_number(1.0) == pytest.approx(MEAN_PHOTONS_ALPHA1, rel=1e-15)


def test_mean_photon_depends_on_modulus_only():
    assert mean_photon_number(1.0 + 1.0j) == pytest.approx(
        mean_photon_number(math.sqrt(2.0)), rel=1e-15
    )


def test_mean_photon_strictly_increasing():
    # strict monotonicity is what makes the bisection in alpha_for_mean_photon safe
    grid = np.linspace(0.0, 6.0, 400)
    values = np.array([mean_photon_number(a) for a in grid])
    assert np.all(np.diff(values) > 0.0)


def test_ecs_vector_norm_within_tail():
    psi = ecs_vector(2.0, _ecs_cutoff(2.0))
    norm = float(np.vdot(psi.amplitudes, psi.amplitudes).real)
    assert abs(norm - 1.0) <= 2e-12


def test_ecs_vector_amplitudes():
    alpha = 1.3
    trunc = _ecs_cutoff(alpha)
    psi = ecs_vector(alpha, trunc)
    c = coherent_vector(alpha, trunc)
    nrm = ecs_normalization(alpha)
    # pure |n>|0> components carry N c_n, |0>|n> the same, |0>|0> both
    assert psi.amplitudes[trunc.index(0, 0)] == pytest.approx(2.0 * nrm * c[0], rel=1e-14)
    for n in (1, 2, 3):
        assert psi.amplitudes[trunc.index(n, 0)] == pytest.approx(nrm * c[n], rel=1e-14)
        assert psi.amplitudes[trunc.index(0, n)] == pytest.approx(nrm * c[n], rel=1e-14)
    # nothing off the two coherent rays
    assert psi.amplitudes[trunc.index(1, 1)] == 0.0


def test_ecs_overlap_with_noon_sectors():
    """<noon_n|ECS> = sqrt(2) N c_n, the amplitude behind the sector weights."""
    alpha = 1.3
    trunc = _ecs_cutoff(alpha)
    psi = ecs_vector(alpha, trunc)
    c = coherent_vector(alpha, trunc)
    nrm = ecs_normalization(alpha)
    for n in (1, 2, 4):
        overlap = complex(np.vdot(noon_vector(n, trunc).amplitudes, psi.amplitudes))
        assert overlap == pytest.approx(math.sqrt(2.0) * nrm * c[n], rel=1e-13)


def test_sector_weights_structure():
    alpha = 1.1
    trunc = _ecs_cutoff(alpha)
    weights = ecs_sector_weights(alpha, trunc)
    nsq = ecs_normalization(alpha) ** 2
    c2 = np.abs(coherent_vector(alpha, trunc)) ** 2
    assert weights[0] == pytest.approx(4.0 * nsq * c2[0], rel=1e-14)
    for n in (1, 2, 5):
        assert weights[n] == pytest.approx(2.0 * nsq * c2[n], rel=1e-14)
    assert float(np.sum(weights)) == pytest.approx(1.0, abs=1e-11)


def test_sector_weights_first_moment_is_mean_photon_number():
    alpha = 1.4
    trunc = _ecs_cutoff(alpha)
    n = np.arange(trunc.dim_single, dtype=float)
    first_moment = float(np.sum(n * ecs_sector_weights(alpha, trunc)))
    assert first_moment == pytest.approx(mean_photon_number(alpha), rel=1e-12)


def test_noon_vector_amplitudes():
    trunc = FockTruncation(5)
    psi = noon_vector(3, trunc)
    s = 1.0 / math.sqrt(2.0)
    assert psi.amplitudes[trunc.index(3, 0)] == pytest.approx(s)
    assert psi.amplitudes[trunc.index(0, 3)] == pytest.approx(s)
    assert np.count_nonzero(psi.amplitudes) == 2


def test_noon_vector_validation():
    with pytest.raises(ValueError):
        noon_vector(0, FockTruncation(3))
    with pytest.raises(TruncationTooSmall):
        noon_vector(4, FockTruncation(3))


class TestAlphaSolve:
    @given(target=st.floats(0.01, 300.0))
    @settings(max_examples=80, deadline=None)
    def test_round_trip(self, target):
        alpha = alpha_for_mean_photon(target)
        assert abs(mean_photon_number(alpha) - target) <= 1e-9

    def test_small_target_doubles_alpha_squared(self):
        # N_bar ~ alpha^2 / 2 for weak fields (branches nearly parallel)
        alpha = alpha_for_mean_photon(1e-4)
        assert alpha * alpha == pytest.approx(2e-4, rel=1e-3)

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_rejects_nonpositive_target(self, bad):
        with pytest.raises(ValueError):
            alpha_for_mean_photon(bad)

    @given(targets=st.lists(
        st.one_of(st.floats(1e-12, 1e300), st.floats(0.05, 300.0)), min_size=1, max_size=40
    ))
    @settings(max_examples=80, deadline=None)
    def test_array_solve_equals_scalar_loop(self, targets):
        """Each row of solve_alpha is the scalar bisection and Newton loop, bit for bit."""
        alpha, converged = solve_alpha(np.array(targets))
        for target, a, ok in zip(targets, alpha.tolist(), converged.tolist()):
            want = _scalar_alpha_solve(target)
            assert ok == (want is not None), target
            if ok:
                assert a == want == alpha_for_mean_photon(target), target
            else:
                with pytest.raises(NoConvergence):
                    alpha_for_mean_photon(target)

    def test_converges_where_doubles_are_coarser_than_the_tolerance(self):
        # above N = 2^17 four ulps of N exceed ALPHA_SOLVE_ATOL; 1e-10 absolute cannot be met
        targets = np.concatenate([np.geomspace(1e5, 1e12, 2000), np.geomspace(1e12, 1e300, 4000)])
        alpha, converged = solve_alpha(targets)
        assert converged.all()
        value = np.array([mean_photon_number(a) for a in alpha.tolist()])
        assert np.all(np.abs(value - targets) <= 1e-14 * targets)

    def test_nonpositive_rows_do_not_converge(self):
        alpha, converged = solve_alpha(np.array([-1.0, 0.0, math.nan, 2.0]))
        assert converged.tolist() == [False, False, False, True]
        assert alpha[3] == alpha_for_mean_photon(2.0)


def _scalar_alpha_solve(target_n: float) -> float | None:
    """The scalar solver that solve_alpha replaced, kept as its reference; None if it fails."""
    def value_and_slope(a):
        s = 1.0 / (1.0 + math.exp(-(a * a)))
        return a * a * s, 2.0 * a * s * (1.0 + a * a * (1.0 - s))

    lo, hi = 0.0, math.sqrt(target_n) + 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if value_and_slope(mid)[0] < target_n:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-6:
            break
    tol = max(ALPHA_SOLVE_ATOL, 4.0 * math.ulp(target_n))
    a = 0.5 * (lo + hi)
    for _ in range(200):
        value, slope = value_and_slope(a)
        if abs(value - target_n) <= tol:
            return a
        a -= (value - target_n) / slope
        if a < lo or a > hi:
            a = 0.5 * (lo + hi)
    return None


class TestProbeSpec:
    def test_valid_specs(self):
        ProbeSpec("ecs", 0.9, alpha=1.0)
        ProbeSpec("noon", 0.0, n=3)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            ProbeSpec("cat", 0.9, alpha=1.0)

    @pytest.mark.parametrize("eta", [-0.1, 1.1])
    def test_eta_range(self, eta):
        with pytest.raises(InvalidEta):
            ProbeSpec("ecs", eta, alpha=1.0)

    def test_ecs_needs_amplitude(self):
        with pytest.raises(ValueError):
            ProbeSpec("ecs", 0.9)

    def test_noon_needs_positive_n(self):
        with pytest.raises(ValueError):
            ProbeSpec("noon", 0.9, n=0)
