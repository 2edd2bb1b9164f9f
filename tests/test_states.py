"""Probe constructions and their scalar descriptors."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from perfbench.reference import mean_photons
from phasefisher.exceptions import InvalidEta, NumericalOverflow, TruncationTooSmall
from phasefisher.fock_core import FockTruncation, coherent_vector
from phasefisher.qfi_analytic import qfi_noon
from phasefisher.qfi_oracle import _ecs_cutoff, build_scenario, scenario_qfi
from phasefisher.states import (
    WITH_REFERENCE,
    ProbeSpec,
    alpha_for_mean_photon,
    ecs_normalization,
    ecs_sector_weights,
    ecs_vector,
    mean_photon_number,
    noon_vector,
    solve_alpha,
)
from test_fock_core import _dense

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
    amp = _dense(psi)
    assert amp[trunc.index(0, 0)] == pytest.approx(2.0 * nrm * c[0], rel=1e-14)
    for n in (1, 2, 3):
        assert amp[trunc.index(n, 0)] == pytest.approx(nrm * c[n], rel=1e-14)
        assert amp[trunc.index(0, n)] == pytest.approx(nrm * c[n], rel=1e-14)
    # nothing off the two coherent rays
    assert amp[trunc.index(1, 1)] == 0.0
    assert trunc.index(1, 1) not in psi.support


def _branch_sum(alpha: complex, trunc: FockTruncation) -> tuple[np.ndarray, np.ndarray]:
    """N (|alpha, 0> + |0, alpha>) summed over the whole basis: its nonzeros' indices and values."""
    c = coherent_vector(alpha, trunc)
    vac = np.zeros(trunc.dim_single, dtype=complex)
    vac[0] = 1.0
    amp = ecs_normalization(alpha) * (np.kron(c, vac) + np.kron(vac, c))
    support = np.flatnonzero(amp)
    return support, amp[support]


@pytest.mark.parametrize("alpha", [0.5, 1.5, 2.0, 3.5, 6.0, 12.0, 1.5j, 0.7 - 0.7j, -1.2])
def test_ecs_vector_is_the_branch_sum_on_its_support(alpha):
    # written straight onto the two axes, bit for bit the sum of the two branches
    trunc = _ecs_cutoff(alpha)
    psi = ecs_vector(alpha, trunc)
    support, amp = _branch_sum(alpha, trunc)
    assert np.array_equal(psi.support, support)
    assert psi.amplitudes.tobytes() == amp.tobytes()


def test_ecs_vector_leaves_underflowed_amplitudes_out():
    # at alpha 1e-160, c_3 = alpha^3 / sqrt(6) underflows to 0, and so does every later c_n
    trunc = FockTruncation(5)
    psi = ecs_vector(1e-160, trunc)
    assert psi.support.tolist() == [0, 1, 2, 6, 12]
    support, amp = _branch_sum(1e-160, trunc)
    assert np.array_equal(psi.support, support)
    assert psi.amplitudes.tobytes() == amp.tobytes()


@pytest.mark.parametrize(
    "build", [lambda: ecs_vector(28.5, _ecs_cutoff(28.5)), lambda: noon_vector(2047, FockTruncation(2047))],
    ids=["ecs-28.5", "noon-2047"],
)
def test_probe_takes_no_array_over_the_basis(build):
    # complex amplitudes over the whole basis take 16 MiB at alpha 28.5 (n_max 1,023) and
    # 64 MiB at n_max 2,047; the ECS occupies 2 n_max + 1 basis states, the NOON state 2
    tracemalloc.start()
    try:
        build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_ecs_overlap_with_noon_sectors():
    """<noon_n|ECS> = sqrt(2) N c_n, the amplitude behind the sector weights."""
    alpha = 1.3
    trunc = _ecs_cutoff(alpha)
    psi = ecs_vector(alpha, trunc)
    c = coherent_vector(alpha, trunc)
    nrm = ecs_normalization(alpha)
    for n in (1, 2, 4):
        overlap = complex(np.vdot(_dense(noon_vector(n, trunc)), _dense(psi)))
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


OVERFLOW_CASES = [
    (ecs_normalization, ()),
    (mean_photon_number, ()),
    (coherent_vector, (FockTruncation(3),)),
    (ecs_sector_weights, (FockTruncation(3),)),
]


@pytest.mark.parametrize("function, args", OVERFLOW_CASES, ids=[f.__name__ for f, _ in OVERFLOW_CASES])
def test_overflow_is_typed_and_names_the_function(function, args):
    # |alpha|^2 itself overflows at alpha = 1e200, as it does in the closed forms
    with pytest.raises(NumericalOverflow, match=function.__name__):
        function(1e200, *args)


def test_noon_vector_amplitudes():
    trunc = FockTruncation(5)
    psi = noon_vector(3, trunc)
    s = 1.0 / math.sqrt(2.0)
    amp = _dense(psi)
    assert amp[trunc.index(3, 0)] == pytest.approx(s)
    assert amp[trunc.index(0, 3)] == pytest.approx(s)
    assert np.count_nonzero(amp) == 2
    assert psi.support.tolist() == [trunc.index(0, 3), trunc.index(3, 0)]


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


_NOON_ORDER_CHECKS = (
    lambda n: ProbeSpec("noon", 0.9, n=n),
    lambda n: noon_vector(n, FockTruncation(3)),
    lambda n: qfi_noon(n, 0.9),
)


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
        # noon_vector and qfi_noon apply ProbeSpec's rule, message and all
        for check in _NOON_ORDER_CHECKS:
            for n in (0, -1):
                with pytest.raises(ValueError, match=f"^NOON probe needs n >= 1, got {n}$"):
                    check(n)

    @pytest.mark.parametrize("n", [2.0, 2.5, np.float64(2.0), "2", None])
    def test_noon_order_must_be_an_integer(self, n):
        # a float order once reached the oracle, which refused it as a misplaced support;
        # noon_vector refused 2.0 the same way, and qfi_noon took 2.5
        for check in _NOON_ORDER_CHECKS:
            with pytest.raises(ValueError, match="NOON order n must be an integer"):
                check(n)

    def test_numpy_integer_order_is_stored_as_int(self):
        probe = ProbeSpec("noon", 0.9, n=np.int64(2))
        assert type(probe.n) is int and probe == ProbeSpec("noon", 0.9, n=2)
        assert scenario_qfi(build_scenario(probe, WITH_REFERENCE)).value == pytest.approx(
            qfi_noon(2, 0.9).value, rel=1e-12
        )

    @pytest.mark.parametrize("alpha", [math.inf, math.nan, 1e-200])
    def test_ecs_needs_finite_amplitude_whose_square_is_positive(self, alpha):
        with pytest.raises(ValueError, match="ECS probe needs"):
            ProbeSpec("ecs", 0.9, alpha=alpha)
