"""Basis bookkeeping, coherent amplitudes, and the state wrappers underneath everything else."""

import math
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from phasefisher.channels import apply_loss
from phasefisher.exceptions import (
    DimensionMismatch,
    NotHermitian,
    NumericalOverflow,
    OracleTooLarge,
    TruncationTooSmall,
)
from phasefisher.fock_core import (
    MAX_STATE_VECTOR_BYTES,
    NORM_ATOL,
    DensityOperator,
    FockTruncation,
    StateVector,
    coherent_vector,
    truncation_for_tolerance,
)
from phasefisher.qfi_oracle import WITH_REFERENCE, WITHOUT_REFERENCE, _ecs_cutoff, build_scenario
from phasefisher.states import ProbeSpec, ecs_vector


def _assert_parts_match_a_search(rho: DensityOperator) -> None:
    """rho.parts are the components a search over the exact nonzeros finds, in their order.

    Sizes increase, each component increases, and components of one size
    are ordered by first state; each stored block is the dense block's.
    """
    m = rho.on(rho.support)
    linked = (m != 0) | (m != 0).T
    seen, found = set(), []
    for start in range(m.shape[0]):
        if start not in seen:
            todo, comp = [start], set()
            while todo:
                i = todo.pop()
                if i not in comp:
                    comp.add(i)
                    todo += np.flatnonzero(linked[i]).tolist()
            seen |= comp
            found.append(sorted(comp))
    found.sort(key=lambda c: (len(c), c[0]))
    assert [c for members, _ in rho.parts for c in members.tolist()] == found
    for members, blocks in rho.parts:
        assert np.array_equal(blocks, m[members[:, :, None], members[:, None, :]])


class TestTruncation:
    def test_dimensions(self):
        t = FockTruncation(3)
        assert t.dim_single == 4
        assert t.dim == 16

    def test_negative_cutoff_rejected(self):
        with pytest.raises(ValueError):
            FockTruncation(-1)

    def test_index_matches_occupation_arrays(self):
        t = FockTruncation(4)
        n1, n2 = t.occupations()
        for a in range(5):
            for b in range(5):
                i = t.index(a, b)
                assert (n1[i], n2[i]) == (a, b)

    def test_index_out_of_range(self):
        t = FockTruncation(2)
        with pytest.raises(ValueError):
            t.index(3, 0)
        with pytest.raises(ValueError):
            t.index(0, -1)

    def test_totals(self):
        t = FockTruncation(2)
        assert list(t.totals()) == [0, 1, 2, 1, 2, 3, 2, 3, 4]

    def test_size_ceiling(self):
        # the largest cutoff whose two-mode amplitude vector fits MAX_STATE_VECTOR_BYTES
        assert 16 * FockTruncation(2047).dim == MAX_STATE_VECTOR_BYTES
        with pytest.raises(OracleTooLarge, match="n_max=2048"):
            FockTruncation(2048)

    def test_truncation_for_tolerance_is_minimal(self):
        tol = 1e-8
        t = truncation_for_tolerance(1.7, tol)
        # the tail 1 - ||c||^2 at each cutoff, from amplitudes on a cutoff well past it
        c2 = np.abs(coherent_vector(1.7, _ecs_cutoff(1.7))) ** 2
        assert 1.0 - float(np.sum(c2[: t.n_max + 1])) <= tol  # fits at the returned cutoff
        assert t.n_max > 0 and 1.0 - float(np.sum(c2[: t.n_max])) > tol

    def test_truncation_for_tolerance_vacuum(self):
        assert truncation_for_tolerance(0.0, 1e-12).n_max == 0

    def test_truncation_for_tolerance_past_underflowing_vacuum_weight(self):
        # e^{-900} underflows, so a walk up the Poisson pmf from n = 0 finds no cutoff here
        t = truncation_for_tolerance(30.0, 1e-12)
        c = coherent_vector(30.0, t)
        assert abs(1.0 - float(np.vdot(c, c).real)) <= 1e-12

    def test_truncation_for_tolerance_never_falls_as_alpha_rises(self):
        cutoffs = [truncation_for_tolerance(a, 1e-12).n_max for a in np.arange(0.05, 37.5, 0.01)]
        assert np.all(np.diff(cutoffs) >= 0)

    @pytest.mark.parametrize("alpha", [46.0, 1e8])
    def test_truncation_for_tolerance_refuses_oversized_cutoffs(self, alpha):
        with pytest.raises(OracleTooLarge):
            truncation_for_tolerance(alpha, 1e-12)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -1e-3, 2.0])
    def test_truncation_for_tolerance_rejects_bad_tol(self, bad):
        with pytest.raises(ValueError):
            truncation_for_tolerance(1.0, bad)


class TestCoherent:
    @given(alpha=st.floats(0.1, 2.5))
    @settings(max_examples=50, deadline=None)
    def test_norm_and_mean_photon(self, alpha):
        trunc = _ecs_cutoff(alpha)
        c = coherent_vector(alpha, trunc)
        norm = float(np.vdot(c, c).real)
        assert abs(norm - 1.0) <= 1e-12
        n_mean = float(np.sum(np.arange(trunc.dim_single) * np.abs(c) ** 2))
        assert n_mean == pytest.approx(alpha * alpha, rel=1e-9)

    def test_complex_amplitude_phases(self):
        c = coherent_vector(1.0j, FockTruncation(30))
        # c_n carries alpha^n, so phases rotate by pi/2 per photon
        assert c[1] == pytest.approx(1j * abs(c[1]))
        assert c[2] == pytest.approx(-abs(c[2]))

    def test_vacuum_overlap(self):
        c = coherent_vector(1.0, FockTruncation(25))
        assert c[0] == pytest.approx(math.exp(-0.5), rel=1e-13)
        assert abs(c[0]) ** 2 == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_tail_gate_trips(self):
        with pytest.raises(TruncationTooSmall):
            coherent_vector(2.0, FockTruncation(4))

    @pytest.mark.parametrize("alpha", [1.0, 2.0, 12.0])
    def test_tail_gate_is_the_norm_tolerance(self, alpha):
        # the one tail rule: a tail up to NORM_ATOL passes, whatever tolerance picked the cutoff
        t = truncation_for_tolerance(alpha, NORM_ATOL)
        c = coherent_vector(alpha, t)
        assert 1e-12 < 1.0 - float(np.vdot(c, c).real) <= NORM_ATOL
        with pytest.raises(TruncationTooSmall, match="coherent tail"):
            coherent_vector(alpha, FockTruncation(t.n_max - 1))

    @pytest.mark.parametrize("alpha, n_max", [(50.0, 2047), (1e10, 50), (1e150, 50)])
    def test_tail_gate_trips_past_the_size_ceiling(self, alpha, n_max):
        # far past the ceiling the start underflows to 0, and neither exp nor an exponent overflows
        with pytest.raises(TruncationTooSmall):
            coherent_vector(alpha, FockTruncation(n_max))

    @pytest.mark.parametrize(
        "alpha", [0.5, 12.0, 38.0, 38.6, 40.0, 41.7, 40.0 * complex(math.cos(0.3), math.sin(0.3))]
    )
    def test_matches_mpmath_up_to_the_size_ceiling(self, alpha):
        # e^{-|alpha|^2/2} is subnormal from alpha 37.6 and 0 from 38.6; the amplitudes
        # must not pass through it. No TruncationTooSmall at the probe cutoff.
        trunc = _ecs_cutoff(alpha)
        c = coherent_vector(alpha, trunc)
        with mp.workdps(50):
            a = mp.mpc(alpha)
            ref = mp.exp(-abs(a) ** 2 / 2)
            worst = 0.0
            for n in range(trunc.dim_single):
                if n:
                    ref = ref * a / mp.sqrt(n)
                if abs(ref) > mp.mpf("1e-300"):
                    worst = max(worst, float(abs(mp.mpc(c[n]) - ref) / abs(ref)))
        assert worst <= 1e-12


class TestStateWrappers:
    def test_state_vector_rejects_bad_norm(self):
        t = FockTruncation(1)
        amp = np.zeros(t.dim, dtype=complex)
        amp[0] = 0.9
        with pytest.raises(ValueError):
            StateVector(amp, t)

    def test_state_vector_rejects_bad_shape(self):
        t = FockTruncation(1)
        with pytest.raises(DimensionMismatch):
            StateVector(np.ones(3, dtype=complex), t)

    def test_density_rejects_nonhermitian(self):
        t = FockTruncation(1)
        m = np.eye(t.dim, dtype=complex) / t.dim
        m[0, 1] = 0.1
        with pytest.raises(NotHermitian):
            DensityOperator(np.arange(t.dim), m, t)
        block = np.array([[0.5, 0.1j], [0.1j, 0.5]])
        with pytest.raises(NotHermitian):
            DensityOperator(np.array([0, 3]), block, t)

    def test_density_rejects_bad_trace(self):
        t = FockTruncation(1)
        with pytest.raises(ValueError):
            DensityOperator(np.arange(t.dim), np.eye(t.dim, dtype=complex), t)

    def test_density_accepts_a_real_block_and_leaves_it_unchanged(self):
        # a float64 block's .conj() is the block itself: the hermiticity check must not write to it
        t = FockTruncation(1)
        block = np.array([[0.5, 0.1], [0.1, 0.5]])
        rho = DensityOperator(np.array([0, 1]), block, t)
        assert np.array_equal(block, [[0.5, 0.1], [0.1, 0.5]])
        assert np.array_equal(rho.on(rho.support), block)
        with pytest.raises(NotHermitian):
            DensityOperator(np.array([0, 1]), np.array([[0.5, 0.1], [0.0, 0.5]]), t)

    @pytest.mark.parametrize(
        "block",
        [
            [[0.5, math.nan], [math.nan, 0.5]],
            [[0.5, math.inf], [math.inf, 0.5]],
            [[math.nan, 0.0], [0.0, 1.0]],  # trace nan, no off-diagonal entry
        ],
    )
    def test_density_rejects_non_finite_entries(self, block):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalOverflow, match="non-finite entry"):
                DensityOperator(np.array([1, 2]), np.array(block, dtype=complex), FockTruncation(1))

    def test_density_rejects_bad_shape(self):
        t = FockTruncation(2)
        half = np.eye(2, dtype=complex) / 2.0
        bad = [
            (np.array([0, 1]), np.eye(3, dtype=complex) / 3.0),  # block does not match support
            (np.array([0, 9]), half),  # index beyond dim - 1
            (np.array([-1, 0]), half),  # negative index
            (np.array([4, 2]), half),  # not increasing
            (np.array([3, 3]), half),  # repeated index
            (np.array([0.0, 1.0]), half),  # not integer
            (np.array([[0, 1]]), half),  # not one-dimensional
        ]
        for support, block in bad:
            with pytest.raises(DimensionMismatch):
                DensityOperator(support, block, t)

    def test_density_from_pure_state(self):
        t = FockTruncation(2)
        amp = np.zeros(t.dim, dtype=complex)
        amp[t.index(1, 0)] = amp[t.index(0, 1)] = 1.0 / math.sqrt(2.0)
        rho = StateVector(amp, t).density()
        assert list(rho.support) == [t.index(0, 1), t.index(1, 0)]
        w, v = np.linalg.eigh(rho.matrix)
        assert w[-1] == pytest.approx(1.0, abs=1e-14)
        assert np.allclose(w[:-1], 0.0, atol=1e-14)
        overlap = abs(np.vdot(v[:, -1], amp))
        assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_pure_block_is_read_without_a_copy(self):
        # one component spans a pure state's support, so .on hands out its stored block
        psi = ecs_vector(1.5, _ecs_cutoff(1.5))
        rho = psi.density()
        (_, blocks), = rho.parts
        block = rho.on(rho.support)
        assert np.shares_memory(block, blocks) and not block.flags.writeable
        amp = psi.amplitudes[rho.support]
        assert np.array_equal(block, np.outer(amp, amp.conj()))
        # a strict superset of the support still gets a fresh array
        assert not np.shares_memory(rho.on(np.arange(rho.truncation.dim)), blocks)

    def test_matrix_round_trips_the_block(self):
        t = FockTruncation(2)
        m = np.zeros((t.dim, t.dim), dtype=complex)
        i, j = t.index(0, 2), t.index(2, 1)
        m[i, i], m[j, j], m[i, j], m[j, i] = 0.25, 0.75, 0.1j, -0.1j
        rho = DensityOperator(np.array([i, j]), m[np.ix_([i, j], [i, j])], t)
        assert np.array_equal(rho.on(rho.support), [[0.25, 0.1j], [-0.1j, 0.75]])
        assert np.array_equal(rho.matrix, m)
        with pytest.raises(ValueError):
            rho.matrix[i, i] = 0.0

    def test_stored_as_exact_zero_components(self):
        # a lossy ECS sector n keeps its one coherence pair |0, n>, |n, 0> and 2n - 1 lone states
        t = FockTruncation(12)
        n = 7
        amp = np.zeros(t.dim, dtype=complex)
        amp[t.index(n, 0)] = amp[t.index(0, n)] = 1.0 / math.sqrt(2.0)
        rho = apply_loss(StateVector(amp, t).density(), 0.8)
        assert rho.support.size == 2 * n + 1
        (lone, lone_blocks), (pair, pair_blocks) = rho.parts
        assert lone.shape == (2 * n - 1, 1) and lone_blocks.shape == (2 * n - 1, 1, 1)
        assert pair.shape == (1, 2) and pair_blocks.shape == (1, 2, 2)
        assert list(rho.support[pair[0]]) == [t.index(0, n), t.index(n, 0)]
        assert np.all(np.diff(lone[:, 0]) > 0)
        # labelling the dense block finds the components the loss predicted
        again = DensityOperator(rho.support, rho.on(rho.support), t)
        assert np.array_equal(again.support, rho.support)
        assert np.array_equal(again.matrix, rho.matrix)
        for (m1, b1), (m2, b2) in zip(again.parts, rho.parts, strict=True):
            assert np.array_equal(m1, m2) and np.array_equal(b1, b2)

    def test_one_state_components_holding_zeros_are_kept_as_predicted(self):
        # sector n = 400 at eta 0.9: (1 - eta)^k underflows to 0 past k ~ 323, so the lone
        # states near |0, 0> hold exact zeros; they split no further, and no dense block
        # over the 801 output states (10 MB) is built to find that out
        n = 400
        t = FockTruncation(n)
        amp = np.zeros(t.dim, dtype=complex)
        amp[t.index(n, 0)] = amp[t.index(0, n)] = 1.0 / math.sqrt(2.0)
        rho = StateVector(amp, t).density()
        tracemalloc.start()
        try:
            rho = apply_loss(rho, 0.9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        (lone, lone_blocks), (pair, _) = rho.parts
        assert lone.shape == (2 * n - 1, 1) and pair.shape == (1, 2)
        assert np.count_nonzero(lone_blocks == 0) > 0
        _assert_parts_match_a_search(rho)
        assert peak < 5 * 2**20  # the loss table takes 1.3 MB of it

    def test_parts_cover_every_exact_nonzero(self):
        # a chain 0-2-4 and a pair 1-3, given in interleaved order, plus the lone state 5
        t = FockTruncation(2)
        m = np.zeros((6, 6), dtype=complex)
        for i in range(6):
            m[i, i] = 1.0 / 6.0
        for i, j in [(0, 2), (2, 4), (1, 3)]:
            m[i, j] = m[j, i] = 0.01
        rho = DensityOperator(np.arange(6), m, t)
        assert [members.tolist() for members, _ in rho.parts] == [[[5]], [[1, 3]], [[0, 2, 4]]]
        assert np.array_equal(rho.on(rho.support), m)
        assert all(not b.flags.writeable for _, b in rho.parts)

    def test_parts_match_a_search_over_the_nonzeros(self):
        # sizes increasing, each component increasing, components ordered by first state
        t = FockTruncation(7)
        rng = np.random.default_rng(5)
        m = np.eye(40, dtype=complex) / 40.0
        for i, j in rng.integers(0, 40, (12, 2)):
            m[i, j] = m[j, i] = 1e-3
        m[3, 30] = 1e-13  # within the hermiticity tolerance, so linked one way only
        _assert_parts_match_a_search(DensityOperator(np.arange(40), m, t))

    @pytest.mark.parametrize("eta", [0.0, 1e-300, 0.45])
    def test_loss_parts_match_a_search_over_the_nonzeros(self, eta):
        # the loss predicts its output's components; exact zeros (eta 0, underflow) split them
        rng = np.random.default_rng(6)
        t = FockTruncation(4)
        a = rng.normal(size=(t.dim, t.dim)) + 1j * rng.normal(size=(t.dim, t.dim))
        mixed = DensityOperator(np.arange(t.dim), a @ a.conj().T / np.trace(a @ a.conj().T), t)
        outputs = [apply_loss(mixed, eta)]
        for reference in (WITH_REFERENCE, WITHOUT_REFERENCE):
            scenario = build_scenario(ProbeSpec("ecs", eta, alpha=2.0), reference)
            outputs += [rho for _, rho in scenario.components]
        for rho in outputs:
            _assert_parts_match_a_search(rho)

    def test_buffers_are_read_only(self):
        t = FockTruncation(1)
        amp = np.zeros(t.dim, dtype=complex)
        amp[0] = 1.0
        psi = StateVector(amp, t)
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.0
