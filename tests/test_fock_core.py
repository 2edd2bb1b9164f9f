"""Basis bookkeeping, coherent amplitudes, and the state wrappers underneath everything else."""

import math
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from phasefisher.channels import apply_loss, phase_average
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
    _spectra,
    coherent_vector,
    truncation_for_tolerance,
)
from phasefisher.qfi_oracle import WITH_REFERENCE, _ecs_cutoff, build_scenario
from phasefisher.states import ProbeSpec, ecs_vector, noon_vector


def _state_from_dense(amp: np.ndarray, trunc: FockTruncation) -> StateVector:
    """The pure state whose amplitudes over the whole basis are amp: its nonzeros, in basis order."""
    support = np.flatnonzero(amp)
    return StateVector(support, amp[support], trunc)


def _dense(psi: StateVector) -> np.ndarray:
    """psi's amplitudes over the whole basis, zero off its support."""
    amp = np.zeros(psi.truncation.dim, dtype=complex)
    amp[psi.support] = psi.amplitudes
    return amp


def _search(support: np.ndarray, m: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The components of a dense block's exact nonzeros: (basis states, block) pairs.

    Sizes increase, each component increases, and components of one size
    are ordered by first state.
    """
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
    return [(support[c], m[np.ix_(c, c)]) for c in found]


def _assert_parts_match_a_search(
    rho: DensityOperator,
    sectors: list[tuple[np.ndarray, np.ndarray]] | None = None,
    atol: float = 0.0,
) -> None:
    """rho.parts are the components a search over the exact nonzeros finds.

    Without sectors the search runs on rho's own dense block, and the parts
    must be its components in its order. sectors are (support, dense block)
    pairs that sum to rho, the lossy sectors of a reference-free operator:
    each is searched on its own, and the parts must be all their components
    that hold a nonzero, as a multiset (loss stores no all-zero component).
    Each stored block is the searched block's within atol entrywise, by
    default bit for bit.
    """
    stored = [(rho.support[m], b) for members, blocks in rho.parts for m, b in zip(members, blocks)]
    if sectors is None:
        want = _search(rho.support, rho.on(rho.support))
    else:
        want = [c for support, m in sectors for c in _search(support, m) if c[1].any()]
        for components in (stored, want):
            components.sort(key=lambda c: (c[0].tolist(), c[1].real.tolist(), c[1].imag.tolist()))
    assert len(stored) == len(want)
    for (got_states, got_block), (want_states, want_block) in zip(stored, want):
        assert np.array_equal(got_states, want_states)
        assert float(np.max(np.abs(got_block - want_block))) <= atol


class TestTruncation:
    def test_dimensions(self):
        t = FockTruncation(3)
        assert t.dim_single == 4
        assert t.dim == 16

    def test_negative_cutoff_rejected(self):
        with pytest.raises(ValueError):
            FockTruncation(-1)

    @pytest.mark.parametrize("n_max", [9.0, 2.5, np.float64(3.0), "3", None])
    def test_cutoff_must_be_an_integer(self, n_max):
        with pytest.raises(ValueError, match="n_max must be an integer"):
            FockTruncation(n_max)

    def test_numpy_integer_cutoff_is_stored_as_int(self):
        t = FockTruncation(np.int64(3))
        assert type(t.n_max) is int and t == FockTruncation(3)

    def test_index_matches_occupation_arrays(self):
        t = FockTruncation(4)
        n1, n2 = t.occupations(np.arange(t.dim))
        for a in range(5):
            for b in range(5):
                i = t.index(a, b)
                assert (n1[i], n2[i]) == (a, b)
        # any index array, neither contiguous nor sorted, splits entry by entry
        pairs = [(4, 1), (0, 3), (2, 2), (0, 0), (4, 4), (1, 0)]
        n1, n2 = t.occupations(np.array([t.index(a, b) for a, b in pairs]))
        assert list(zip(n1.tolist(), n2.tolist())) == pairs

    def test_index_out_of_range(self):
        t = FockTruncation(2)
        with pytest.raises(ValueError):
            t.index(3, 0)
        with pytest.raises(ValueError):
            t.index(0, -1)

    def test_totals(self):
        t = FockTruncation(2)
        assert list(t.totals(np.arange(t.dim))) == [0, 1, 2, 1, 2, 3, 2, 3, 4]
        assert list(t.totals(np.array([7, 2]))) == [3, 2]

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
        with pytest.raises(ValueError, match="norm"):
            StateVector(np.array([0]), np.array([0.9], dtype=complex), FockTruncation(1))

    @pytest.mark.parametrize("value", [math.nan, math.inf, complex(math.nan, 1.0), complex(0.0, -math.inf)])
    def test_state_vector_rejects_non_finite_amplitudes(self, value):
        # a NaN norm fails the norm check too, rather than as a non-finite operator entry later
        t = FockTruncation(1)
        with pytest.raises(ValueError, match="norm"):
            StateVector(np.array([0]), np.array([value], dtype=complex), t)
        with pytest.raises(ValueError, match="norm"):  # beside an amplitude that alone has norm 1
            StateVector(np.array([0, 3]), np.array([1.0, value], dtype=complex), t)

    def test_state_vector_rejects_bad_shape(self):
        t = FockTruncation(1)
        with pytest.raises(DimensionMismatch):
            StateVector(np.arange(2), np.ones(3, dtype=complex) / math.sqrt(3.0), t)
        with pytest.raises(DimensionMismatch):  # one amplitude per support entry, not per basis state
            StateVector(np.array([0]), np.array([1.0, 0.0, 0.0, 0.0], dtype=complex), t)

    @pytest.mark.parametrize(
        "support", [[1, 0], [0, 0], [-1, 0], [0, 4], [0.0, 1.0], [[0, 1]]],
        ids=["decreasing", "repeated", "negative", "past-dim", "float", "2-d"],
    )
    def test_state_vector_checks_its_support_as_an_operator_does(self, support):
        t = FockTruncation(1)
        support = np.array(support)
        amp = np.full(support.shape, 1.0 / math.sqrt(2.0), dtype=complex)
        with pytest.raises(DimensionMismatch, match="strictly increasing"):
            StateVector(support, amp, t)
        with pytest.raises(DimensionMismatch, match="strictly increasing"):
            DensityOperator(support, np.eye(2) / 2.0, t)

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
        rho = _state_from_dense(amp, t).density()
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
        assert np.array_equal(rho.support, psi.support)
        assert np.array_equal(block, np.outer(psi.amplitudes, psi.amplitudes.conj()))
        # a strict superset of the support still gets a fresh array
        assert not np.shares_memory(rho.on(np.arange(rho.truncation.dim)), blocks)

    def test_sum_of_real_components_is_real(self):
        # the dense sum takes the stored stacks' dtype on both paths, as the one-component path does
        t = FockTruncation(2)
        rho = DensityOperator(np.array([0, 3, 5]), np.diag([0.5, 0.25, 0.25]), t)
        assert [members.shape for members, _ in rho.parts] == [(3, 1)]  # three lone states
        assert rho.on(rho.support).dtype == np.float64
        assert rho.matrix.dtype == np.float64

    def test_on_rejects_a_support_that_misses_a_state(self):
        # a set of the same size would have put the block on the wrong states; a smaller one
        # raised a bare IndexError
        t = FockTruncation(2)
        rho = DensityOperator(np.array([0, 3]), np.diag([0.5, 0.5]), t)
        for support in (np.array([0, 5]), np.array([0]), np.array([3, 0]), np.array([0, 3, 3])):
            with pytest.raises(DimensionMismatch):
                rho.on(support)
        assert np.array_equal(rho.on(np.array([0, 1, 3])), np.diag([0.5, 0.0, 0.5]))

    # arrays passed in from outside must be numpy arrays of the stated shape: a list is
    # refused, not converted, and each of these read an attribute of it (AttributeError)
    @pytest.mark.parametrize(
        "call",
        [
            lambda t, rho: DensityOperator([0, 3], np.diag([0.5, 0.5]), t),
            lambda t, rho: DensityOperator(np.array([0, 3]), [[0.5, 0.0], [0.0, 0.5]], t),
            lambda t, rho: StateVector([0], np.array([1.0]), t),
            lambda t, rho: StateVector(np.array([0]), [1.0], t),
            lambda t, rho: rho.on([0, 3]),
        ],
        ids=["operator-support", "operator-block", "vector-support", "vector-amplitudes", "on-support"],
    )
    def test_a_list_raises_dimension_mismatch(self, call):
        t = FockTruncation(2)
        rho = DensityOperator(np.array([0, 3]), np.diag([0.5, 0.5]), t)
        with pytest.raises(DimensionMismatch, match="numpy array"):
            call(t, rho)

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
        rho = apply_loss(noon_vector(n, t).density(), 0.8)
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

    def test_underflowed_lone_states_are_not_stored(self):
        # sector n = 400 at eta 0.9: (1 - eta)^k underflows to 0 past k ~ 323, so 63 of the
        # 799 lone states near |0, 0> would hold exact zeros; loss stores none of them, and
        # no dense block over the 801 output states (10 MB) is built to find that out
        n = 400
        t = FockTruncation(n)
        rho = noon_vector(n, t).density()
        tracemalloc.start()
        try:
            rho = apply_loss(rho, 0.9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        (lone, _), (pair, _) = rho.parts
        assert lone.shape == (736, 1) and pair.shape == (1, 2)
        assert rho.support.size == 736 + 2
        assert all(blocks.any(axis=(1, 2)).all() for _, blocks in rho.parts)
        _assert_parts_match_a_search(rho)
        assert peak < 5 * 2**20  # the loss table takes 1.3 MB of it

    def test_loss_of_a_mixed_state_takes_only_its_components_entries(self):
        # the phase-averaged ECS at alpha 6 is the vacuum and 88 two-state sectors: 353 eigenvector
        # entries, 16,017 Kraus incidences. A dense factor over its 177 states would bring 31,329
        # entries and 1.4 million incidences (67.5 MiB traced, 2.6 MiB without)
        rho = phase_average(ecs_vector(6.0, _ecs_cutoff(6.0)).density())
        tracemalloc.start()
        try:
            lossy = apply_loss(rho, 0.8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [members.shape for members, _ in lossy.parts] == [(1, 1), (88, 2)]
        assert peak < 8 * 2**20

    def test_hermiticity_check_takes_one_block_sized_temporary(self):
        # a real 1,000-state block (7.6 MiB) with no exact zero is stored as given; the check's
        # one temporary, the conjugate transpose, then holds the gaps and their absolute values
        a = np.random.default_rng(7).random((1000, 1000)) + 1.0
        block = (a + a.T) / np.trace(a + a.T)
        tracemalloc.start()
        try:
            rho = DensityOperator(np.arange(1000), block, FockTruncation(31))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.shares_memory(rho.parts[0][1], block)
        assert peak < 1.25 * block.nbytes

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
        from test_channels import _assert_components_match_the_sector_loops  # it imports this module

        rng = np.random.default_rng(6)
        t = FockTruncation(4)
        a = rng.normal(size=(t.dim, t.dim)) + 1j * rng.normal(size=(t.dim, t.dim))
        mixed = DensityOperator(np.arange(t.dim), a @ a.conj().T / np.trace(a @ a.conj().T), t)
        dephased = phase_average(ecs_vector(2.0, _ecs_cutoff(2.0)).density())
        with_reference = build_scenario(ProbeSpec("ecs", eta, alpha=2.0), WITH_REFERENCE)
        for rho in (apply_loss(mixed, eta), apply_loss(dephased, eta), with_reference):
            _assert_parts_match_a_search(rho)
        # the reference-free operator, each sector searched on its own
        _assert_components_match_the_sector_loops(2.0, eta)

    def test_buffers_are_read_only(self):
        t = FockTruncation(1)
        psi = StateVector(np.array([0]), np.array([1.0], dtype=complex), t)
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.0
        assert psi.support.tolist() == [0]
        with pytest.raises(ValueError):
            psi.support[0] = 1


class TestSpectra:
    """The one eigenvalue rule for stored components, shared by apply_loss and qfi_numeric."""

    def test_one_state_is_its_mantissa_with_no_eigh(self, monkeypatch):
        def no_eigh(a):
            raise AssertionError("eigh called on one-state components")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        entries = np.array([0.75, 3e-20, 6.0, 0.0])
        p, v, exponent = _spectra(entries[:, None, None].astype(complex))
        mantissa, want = np.frexp(entries)
        assert np.array_equal(p[:, 0], mantissa) and np.array_equal(exponent, want)
        assert np.array_equal(v, np.ones((4, 1, 1)))

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_scaled_spectra_sum_to_each_trace(self, dtype):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(3, 4, 4)) + (1j * rng.normal(size=(3, 4, 4)) if dtype is complex else 0.0)
        blocks = (a @ a.conj().transpose(0, 2, 1)) * np.array([1e-30, 1.0, 5e10])[:, None, None]
        p, v, exponent = _spectra(blocks)
        assert v.dtype == np.dtype(dtype)
        scale = np.ldexp(p, exponent[:, None])
        trace = np.trace(blocks, axis1=1, axis2=2).real
        assert np.allclose(scale.sum(axis=1), trace, rtol=1e-14, atol=0.0)
        rebuilt = (v * scale[:, None, :]) @ v.conj().transpose(0, 2, 1)
        assert np.allclose(rebuilt, blocks, rtol=0.0, atol=1e-13 * trace.max())
