"""Probe constructions and their scalar descriptors."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from perfbench.reference import mean_photons
from phasefisher.exceptions import InvalidEta, TruncationTooSmall
from phasefisher.fock_core import FockTruncation, coherent_vector
from phasefisher.qfi_oracle import _ecs_cutoff
from phasefisher.states import (
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

# targets on which a bisection-then-Newton solve kept falling back to the same
# bracket midpoint: 4.856e-7, and the ten such targets among 200,000
# log-uniform targets in [1e-12, 2^17] drawn with numpy.random.default_rng(0)
MIDPOINT_LOOP_TARGETS = [
    4.85594242599917e-07,
    1.7095058731147553e-07,
    1.7999300995834363e-07,
    4.203449762112532e-08,
    1.326525770495144e-07,
    4.2034455718826756e-08,
    4.039141245098917e-08,
    2.597978671793064e-08,
    7.834073397746044e-08,
    1.0480767951420392e-07,
    1.411378633599471e-07,
]


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
    # strict monotonicity is what makes the bracket in solve_alpha safe
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

    @given(targets=st.lists(st.floats(-300.0, 300.0).map(lambda k: 10.0**k), min_size=1, max_size=40))
    @settings(max_examples=80, deadline=None)
    @example(targets=MIDPOINT_LOOP_TARGETS)
    @example(targets=[5e-324, 2.2250738585072014e-308, 1.7976931348623157e308])
    def test_mean_photon_number_within_four_ulps(self, targets):
        """Each row's alpha has a 50-digit mean photon number within 4 ulps of its target.

        Rounding alpha = sqrt(u) alone can cost 3 ulps, so 4 leaves one
        for the solve. Each row also equals the one-row call.
        """
        alpha = solve_alpha(np.array(targets))
        for target, a in zip(targets, alpha.tolist()):
            assert abs(mean_photons(a) - target) <= 4 * math.ulp(target), target
            assert a == alpha_for_mean_photon(target), target

    def test_converges_where_doubles_are_coarser_than_the_tolerance(self):
        # past N = 2^17 the doubles around N are coarser than 1e-10
        targets = np.concatenate([np.geomspace(1e5, 1e12, 2000), np.geomspace(1e12, 1e300, 4000)])
        alpha = solve_alpha(targets)
        value = np.array([mean_photon_number(a) for a in alpha.tolist()])
        assert np.all(np.abs(value - targets) <= 1e-14 * targets)

    @pytest.mark.parametrize("bad", [-1.0, 0.0, math.nan, math.inf])
    def test_rows_not_positive_and_finite_raise(self, bad):
        with pytest.raises(ValueError, match="positive and finite"):
            solve_alpha(np.array([2.0, bad]))


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
