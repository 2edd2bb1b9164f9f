"""Brute-force QFI, scenario assembly, and the verification suite.

Positive checks pin the oracle to exactly solvable cases; the negative
controls at the bottom corrupt the closed forms on purpose and demand the
verification suite notices.
"""

import collections
import csv
import math
import sys
import tracemalloc
import warnings
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from phasefisher.channels import (
    apply_loss,
    phase_average,
    single_arm_generator,
    two_arm_generator,
)
from phasefisher.exceptions import (
    DegenerateSpectrum,
    DimensionMismatch,
    InvalidEta,
    NegativeEigenvalue,
    OracleTooLarge,
    TruncationTooSmall,
)
from phasefisher.fock_core import (
    MAX_STATE_VECTOR_BYTES,
    DensityOperator,
    FockTruncation,
    StateVector,
)
from phasefisher.qfi_analytic import (
    basis_overlap_matrix,
    qfi_ecs_noref,
    qfi_ecs_ref,
    qfi_noon,
    sigma_spectrum,
)
from phasefisher import qfi_oracle
from phasefisher.qfi_oracle import (
    ASYMPTOTIC_POINTS,
    DEFAULT_GRID_ALPHAS,
    DEFAULT_GRID_ETAS,
    NOON_ORDERS,
    ORACLE_POINT_TOL,
    WITH_REFERENCE,
    WITHOUT_REFERENCE,
    _ecs_cutoff,
    _rel,
    build_scenario,
    qfi_numeric,
    scenario_mixture,
    scenario_qfi,
    two_level_matrix_numeric,
    verify_all,
)
from phasefisher.states import ProbeSpec, ecs_sector_weights, ecs_vector, noon_vector


GOLDEN_ORACLE = Path(__file__).resolve().parent / "data" / "oracle_grid.csv"


def _from_dense(matrix: np.ndarray, trunc: FockTruncation) -> DensityOperator:
    """The operator on the rows and columns of a dense (dim, dim) matrix with any exact nonzero."""
    nz = matrix != 0
    support = np.flatnonzero(nz.any(axis=0) | nz.any(axis=1))
    return DensityOperator(support, matrix[np.ix_(support, support)], trunc)


def _sectors(psi: StateVector) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """psi's occupied total photon numbers n1 + n2, ascending, each sector's weight and its support."""
    n1, n2 = np.divmod(psi.support, psi.truncation.dim_single)
    n = np.flatnonzero(np.bincount(n1 + n2))
    masks = [n1 + n2 == total for total in n]
    weights = np.array([float(np.vdot(psi.amplitudes[m], psi.amplitudes[m]).real) for m in masks])
    return n, weights, [psi.support[m] for m in masks]


def _embed(rho: DensityOperator, target: FockTruncation) -> DensityOperator:
    n1s, n2s = rho.truncation.occupations()
    idx = n1s * (target.n_max + 1) + n2s
    acc = np.zeros((target.dim, target.dim), dtype=complex)
    acc[np.ix_(idx, idx)] = rho.matrix
    return _from_dense(acc, target)


class TestQfiNumeric:
    def test_pure_noon_hits_n_squared(self):
        trunc = FockTruncation(2)
        rho = noon_vector(2, trunc).density()
        got = qfi_numeric(rho, two_arm_generator(trunc))
        assert got.value == pytest.approx(4.0, rel=1e-12)

    def test_pure_state_equals_four_variances(self):
        alpha, eta = 0.9, 1.0
        trunc = _ecs_cutoff(alpha)
        psi = ecs_vector(alpha, trunc)
        gen = two_arm_generator(trunc)
        p = np.abs(psi.amplitudes) ** 2
        g = gen[psi.support]
        g1 = float(np.sum(p * g))
        g2 = float(np.sum(p * g**2))
        got = qfi_numeric(apply_loss(psi.density(), eta), gen)
        assert got.value == pytest.approx(4.0 * (g2 - g1 * g1), rel=1e-12)

    def test_mixture_of_orthogonal_pure_states_is_additive(self):
        # diagonal generator, disjoint supports: no cross contributions
        trunc = FockTruncation(3)
        gen = two_arm_generator(trunc)
        rho = _from_dense(
            0.3 * noon_vector(1, trunc).density().matrix
            + 0.7 * noon_vector(3, trunc).density().matrix,
            trunc,
        )
        assert qfi_numeric(rho, gen).value == pytest.approx(0.3 * 1.0 + 0.7 * 9.0, rel=1e-12)
        # all the information in an eigenvalue of 1e-13: (1 - w)|0,0><0,0| + w NOON(1)
        w = 1e-13
        vacuum = np.zeros((trunc.dim, trunc.dim), dtype=complex)
        vacuum[0, 0] = 1.0
        rho = _from_dense(
            (1.0 - w) * vacuum + w * noon_vector(1, trunc).density().matrix, trunc
        )
        assert qfi_numeric(rho, gen).value == pytest.approx(w, rel=1e-12, abs=0.0)

    def test_invariant_under_commuting_unitary(self):
        trunc = _ecs_cutoff(0.8)
        rho = apply_loss(ecs_vector(0.8, trunc).density(), 0.7)
        gen = two_arm_generator(trunc)
        u = np.exp(-1j * 0.37 * single_arm_generator(trunc)[rho.support])
        rotated = DensityOperator(rho.support, np.outer(u, u.conj()) * rho.on(rho.support), trunc)
        base = qfi_numeric(rho, gen).value
        assert qfi_numeric(rotated, gen).value == pytest.approx(base, rel=1e-10)

    def test_invariant_under_generator_shift(self):
        trunc = _ecs_cutoff(0.8)
        rho = apply_loss(ecs_vector(0.8, trunc).density(), 0.7)
        gen = two_arm_generator(trunc)
        assert qfi_numeric(rho, gen + 0.7).value == pytest.approx(
            qfi_numeric(rho, gen).value, rel=1e-12
        )

    def test_support_restriction_is_exact(self):
        small = FockTruncation(2)
        rho = apply_loss(noon_vector(2, small).density(), 0.6)
        big = _embed(rho, FockTruncation(7))
        a = qfi_numeric(rho, two_arm_generator(small)).value
        b = qfi_numeric(big, two_arm_generator(big.truncation)).value
        assert b == pytest.approx(a, rel=1e-12)

    def test_truncation_mismatch_rejected(self):
        rho = noon_vector(1, FockTruncation(2)).density()
        with pytest.raises(DimensionMismatch):
            qfi_numeric(rho, two_arm_generator(FockTruncation(3)))

    def test_negative_eigenvalue_rejected(self):
        trunc = FockTruncation(1)
        diag = np.zeros(trunc.dim)
        diag[0], diag[1] = 1.3, -0.3
        rho = _from_dense(np.diag(diag.astype(complex)), trunc)
        with pytest.raises(NegativeEigenvalue):
            qfi_numeric(rho, two_arm_generator(trunc))


class TestConfigAndScenarioValidation:
    def test_build_scenario_reference_label(self):
        with pytest.raises(ValueError):
            build_scenario(ProbeSpec("noon", 0.9, n=1), "sometimes")


def _peak_bytes_while_refused(probe: ProbeSpec, cutoff: str) -> int:
    """Traced peak of a build_scenario call that must raise OracleTooLarge naming cutoff."""
    tracemalloc.start()
    try:
        with pytest.raises(OracleTooLarge, match=cutoff):
            build_scenario(probe, WITH_REFERENCE)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBuildScenario:
    def test_noon_is_one_component_either_way(self):
        """A NOON probe has a sharp total photon number: one sector, so the two references agree.

        Its one sector block is the pure state's own, so they agree bit for bit.
        """
        probe = ProbeSpec("noon", 0.8, n=3)
        with_ref = build_scenario(probe, WITH_REFERENCE)
        without = build_scenario(probe, WITHOUT_REFERENCE)
        assert np.array_equal(with_ref.support, without.support)
        for (m1, b1), (m2, b2) in zip(with_ref.parts, without.parts, strict=True):
            assert np.array_equal(m1, m2) and np.array_equal(b1, b2)

    def test_ecs_sector_weights(self):
        alpha = 1.0
        _, weights, supports = _sectors(ecs_vector(alpha, _ecs_cutoff(alpha)))
        assert sum(weights) == pytest.approx(1.0, abs=1e-10)
        # vacuum sector first, supported on the vacuum alone
        assert list(supports[0]) == [0]
        expected = ecs_sector_weights(alpha, _ecs_cutoff(alpha))
        assert weights[0] == pytest.approx(float(expected[0]), rel=1e-12)
        assert weights[1] == pytest.approx(float(expected[1]), rel=1e-12)

    def test_with_reference_support_is_the_two_axes(self):
        """Loss keeps |n, 0> + |0, m> states on their axes: 2 n_max + 1 basis states."""
        probe = ProbeSpec("ecs", 0.9, alpha=4.0)
        rho = build_scenario(probe, WITH_REFERENCE)
        n_max = _ecs_cutoff(4.0).n_max
        assert rho.support.size == 2 * n_max + 1 == 107

    def test_reference_free_sectors_store_only_their_nonzeros(self):
        """Each lossy sector n keeps 2n + 3 entries (2n + 1 diagonals, one coherence pair).

        Its dense block over the loss closure would hold (2n + 1)^2: 939,919 entries here.
        """
        rho = build_scenario(ProbeSpec("ecs", 0.9, alpha=6.0), WITHOUT_REFERENCE)
        stored = sum(b.size for _, b in rho.parts)
        nonzero = sum(int(np.count_nonzero(b)) for _, b in rho.parts)
        assert stored <= 10_000
        assert stored == nonzero

    @pytest.mark.parametrize("alpha", [12.0, 20.0, 28.5])
    def test_every_nonzero_sector_is_kept_at_large_fields(self, alpha):
        """sum_n w_n n^2 eta^n over the sector traces w_n is the closed form to 1e-12.

        Loss tilts F toward low n, so sectors far too light to matter to the
        state still carry F: a weight floor of 1e-14 would put this sum
        6.6e-12, 4.6e-9 and 1.07e-6 from the closed form at these alphas.
        """
        eta = 0.9
        trunc = _ecs_cutoff(alpha)
        n, weights, _ = _sectors(ecs_vector(alpha, trunc))
        n = n.astype(float)
        value = float(np.sum(weights * n**2 * eta**n))
        assert _rel(value, qfi_ecs_noref(alpha, eta).value) <= 1e-12

    def test_no_stored_component_is_all_zero(self):
        """At alpha 20, eta 0.9 no stored component is all zero, and F holds to 1e-12.

        The lossy images of the lightest sectors and of the far lone states
        underflow to 0; 24,960 such entries were stored before they were
        dropped, and 5.521161190177005e-13 is F computed with them kept.
        """
        rho = build_scenario(ProbeSpec("ecs", 0.9, alpha=20.0), WITHOUT_REFERENCE)
        assert all(blocks.any(axis=(1, 2)).all() for _, blocks in rho.parts)
        assert _rel(scenario_qfi(rho).value, 5.521161190177005e-13) <= 1e-12

    def test_large_field_oracle_stays_small(self):
        """alpha = 4 on a 54-state-per-mode cutoff: both references, traced peak below 64 MB.

        A dense (n_max + 1)^2 x (n_max + 1)^2 operator alone would take 130 MiB here.
        """
        alpha, eta = 4.0, 0.9
        probe = ProbeSpec("ecs", eta, alpha=alpha)
        tracemalloc.start()
        try:
            with_ref = scenario_qfi(build_scenario(probe, WITH_REFERENCE)).value
            without = scenario_qfi(build_scenario(probe, WITHOUT_REFERENCE)).value
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(with_ref / qfi_ecs_ref(alpha, eta).value - 1.0) <= 1e-8
        assert abs(without / qfi_ecs_noref(alpha, eta).value - 1.0) <= 1e-6
        assert peak < 64 * 2**20

    def test_oversized_cutoff_refused_before_allocating(self):
        """n = 100000 would need a 149 GiB amplitude vector; nothing large may be allocated."""
        probe = ProbeSpec("noon", 0.9, n=100000)
        assert _peak_bytes_while_refused(probe, "n_max=100000") < 2**20

    def test_oversized_ecs_cutoff_refused_before_allocating(self):
        # at alpha = 1e8 the mean photon number alone is past the ceiling
        probe = ProbeSpec("ecs", 0.9, alpha=1e8)
        assert _peak_bytes_while_refused(probe, "n_max=10000000000000000") < 2**20

    def test_size_ceiling_admits_every_cutoff_in_use(self):
        # the largest: `verify --alpha 12` doubles its tail cutoff for the stability row
        doubled = FockTruncation(2 * _ecs_cutoff(12.0).n_max)
        assert 16 * doubled.dim <= MAX_STATE_VECTOR_BYTES
        with pytest.raises(OracleTooLarge):
            FockTruncation(2048)
        # alpha 28.5 is the largest `verify` amplitude whose doubled cutoff fits
        assert FockTruncation(2 * _ecs_cutoff(28.5).n_max).n_max == 2046

    def test_full_loss_yields_zero_information(self):
        probe = ProbeSpec("ecs", 0.0, alpha=1.0)
        for reference in (WITH_REFERENCE, WITHOUT_REFERENCE):
            value = scenario_qfi(build_scenario(probe, reference)).value
            assert value == pytest.approx(0.0, abs=1e-14)


class TestSectorFold:
    def test_reference_free_build_is_one_kraus_pass(self, monkeypatch):
        # every sector goes to the Kraus routine in one call, each its own label, and
        # the only operator built is the one it returns
        kraus, post_init = qfi_oracle._kraus_loss, DensityOperator.__post_init__
        calls, built = [], []

        def counting_kraus(state, column, amp, w, label, eta, trunc):
            calls.append(np.unique(label[column]).size)
            return kraus(state, column, amp, w, label, eta, trunc)

        def recording_post_init(self, block):
            built.append(self)
            post_init(self, block)

        monkeypatch.setattr(qfi_oracle, "_kraus_loss", counting_kraus)
        monkeypatch.setattr(DensityOperator, "__post_init__", recording_post_init)
        rho = build_scenario(ProbeSpec("ecs", 0.9, alpha=2.0), WITHOUT_REFERENCE)
        assert calls == [len(_sectors(ecs_vector(2.0, _ecs_cutoff(2.0)))[0])]
        assert calls[0] > 10
        assert len(built) == 1 and built[0] is rho


class TestScenarioQfi:
    @pytest.mark.parametrize("reference", [WITH_REFERENCE, WITHOUT_REFERENCE])
    def test_real_and_imaginary_alpha_agree(self, reference):
        """Real alpha takes real arithmetic, alpha * 1j complex; F reads |alpha| alone.

        On the default grid the two agree to 1e-12 relative (1.6e-14 measured).
        """
        for alpha in DEFAULT_GRID_ALPHAS:
            for eta in DEFAULT_GRID_ETAS:
                real = build_scenario(ProbeSpec("ecs", eta, alpha=alpha), reference)
                rotated = build_scenario(ProbeSpec("ecs", eta, alpha=alpha * 1j), reference)
                assert all(b.dtype == np.float64 for _, b in real.parts)
                assert any(np.iscomplexobj(b) for _, b in rotated.parts)
                assert _rel(scenario_qfi(rotated).value, scenario_qfi(real).value) <= 1e-12

    def test_noref_matches_closed_form(self):
        probe = ProbeSpec("ecs", 0.9, alpha=1.0)
        oracle = scenario_qfi(build_scenario(probe, WITHOUT_REFERENCE))
        closed = qfi_ecs_noref(1.0, 0.9).value
        assert abs(oracle.value - closed) / closed <= 1e-8

    def test_ref_matches_closed_form(self):
        probe = ProbeSpec("ecs", 0.9, alpha=1.0)
        oracle = scenario_qfi(build_scenario(probe, WITH_REFERENCE))
        closed = qfi_ecs_ref(1.0, 0.9).value
        assert abs(oracle.value - closed) / closed <= 1e-8

    @given(alpha=st.floats(1e-3, 3.0), eta=st.floats(-300.0, 0.0).map(lambda e: 10.0**e))
    @example(alpha=1.0, eta=1e-300)
    @settings(max_examples=30, deadline=None)
    def test_ecs_matches_closed_forms_down_to_tiny_eta(self, alpha, eta):
        # a squared eigenvalue difference underflowed below eta 5.7e-157 with a reference
        probe = ProbeSpec("ecs", eta, alpha=alpha)
        for reference, closed_form in (
            (WITH_REFERENCE, qfi_ecs_ref),
            (WITHOUT_REFERENCE, qfi_ecs_noref),
        ):
            oracle = scenario_qfi(build_scenario(probe, reference)).value
            closed = closed_form(alpha, eta).value
            deviation = abs(oracle - closed) / (abs(closed) if closed != 0.0 else 1.0)
            assert deviation <= ORACLE_POINT_TOL["ecs", reference], (reference, oracle, closed)

    def test_noon_matches_closed_form(self):
        probe = ProbeSpec("noon", 0.7, n=3)
        oracle = scenario_qfi(build_scenario(probe, WITH_REFERENCE))
        assert oracle.value == pytest.approx(9.0 * 0.7**3, rel=1e-10)

    def test_matches_golden_oracle_grid(self):
        """Oracle values on the default grid and the NOON orders, to 1e-12 relative.

        tests/data/oracle_grid.csv holds scenario_qfi(build_scenario(...))
        on the default cutoffs for the 16-point (alpha, eta) grid and NOON
        orders 1, 2, 3 and 5, both references, as computed by the per-pair
        loss loop on the earlier, wider ECS cutoff ceil(a^2 + 10 a + 20). The
        coherent-tail cutoff the oracle uses now stays within 9.7e-13 of it
        (alpha 1.5, eta 0.6, with reference). The four reference-free alpha 0.5
        rows were recomputed once every sector of nonzero weight was kept (a
        1e-14 weight floor had put them up to 1.8e-12 low); each is within
        7.4e-16 of a 50-digit mpmath sector sum over the same cutoff, and at
        eta 1 it equals the with-reference oracle bit for bit. The closed-form
        gates (1e-6 to 1e-9) would miss a drift this small in the oracle's own
        digits.
        """
        with GOLDEN_ORACLE.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 64
        for row in rows:
            eta = float(row["eta"])
            if row["family"] == "ecs":
                probe = ProbeSpec("ecs", eta, alpha=float(row["size"]))
            else:
                probe = ProbeSpec("noon", eta, n=int(row["size"]))
            value = scenario_qfi(build_scenario(probe, row["reference"])).value
            want = float(row["qfi"])
            assert abs(value - want) <= 1e-12 * abs(want), row


class TestScenarioMixture:
    def test_equals_dephase_then_lose(self):
        alpha, eta = 1.0, 0.9
        trunc = _ecs_cutoff(alpha)
        scenario = build_scenario(ProbeSpec("ecs", eta, alpha=alpha), WITHOUT_REFERENCE, trunc)
        merged = scenario_mixture(scenario)
        direct = phase_average(apply_loss(ecs_vector(alpha, trunc).density(), eta))
        assert np.allclose(merged.matrix, direct.matrix, atol=1e-13)

    def test_label_free_mixture_loses_exactly_the_coherence_weight(self):
        """Pinned: QFI of the merged mixture is p_perp times the ensemble value.

        Loss couples neighboring sectors, and for this family the damage
        collapses to a single overall factor. Guards the ensemble-vs-mixture
        distinction the reference-free scenario is built around.
        """
        alpha, eta = 1.0, 0.9
        scenario = build_scenario(ProbeSpec("ecs", eta, alpha=alpha), WITHOUT_REFERENCE)
        mix = scenario_mixture(scenario)
        mixture_qfi = qfi_numeric(mix, two_arm_generator(mix.truncation)).value
        p_perp = math.exp(-(1.0 - eta) * alpha * alpha)
        assert mixture_qfi == pytest.approx(p_perp * qfi_ecs_noref(alpha, eta).value, rel=1e-8)
        ensemble_qfi = scenario_qfi(scenario).value
        assert mixture_qfi < ensemble_qfi


class TestTwoLevelNumeric:
    def test_matches_closed_basis_matrix(self):
        m = two_level_matrix_numeric(1.3, 0.7)
        assert np.allclose(m, basis_overlap_matrix(1.3, 0.7), atol=1e-12)

    def test_coincident_branches_raise_typed_error(self):
        # at alpha 1e-3, eta 5e-324 the branches differ by amplitudes near 2e-165,
        # whose squares, and so ||psi2 - psi1||^2, underflow to 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateSpectrum):
                two_level_matrix_numeric(1e-3, 5e-324)

    def test_eigenvalues_match_spectrum(self):
        s = sigma_spectrum(1.3, 0.7)
        lo, hi = np.linalg.eigvalsh(two_level_matrix_numeric(1.3, 0.7))
        assert hi == pytest.approx(s.gamma_plus, abs=1e-12)
        assert lo == pytest.approx(s.gamma_minus, abs=1e-12)


def _spectrum_without_factor_four(alpha: float, eta: float):
    # the transcription slip the eigenvalue check exists to catch
    s = sigma_spectrum(alpha, eta)
    r = math.sqrt(1.0 - s.det_sigma)
    return s._replace(gamma_plus=0.5 * (1.0 + r), gamma_minus=0.5 * (1.0 - r))


def _basis_with_spurious_coherence_factor(alpha: float, eta: float):
    m = basis_overlap_matrix(alpha, eta).copy()
    m[1, 1] *= math.exp(-(1.0 - eta) * abs(alpha) ** 2)
    return m


class TestVerifyAll:
    def test_relative_error_at_zero_reference(self):
        assert _rel(0.0, 0.0) == 0.0
        assert _rel(1e-300, 0.0) == math.inf
        assert _rel(2.0, 1.0) == 1.0
        assert math.isnan(_rel(math.nan, 1.0))

    def test_asymptotic_points_lie_in_the_regime(self):
        # asymptotic_regime compares every point; one outside the regime fails here
        for alpha, eta in ASYMPTOTIC_POINTS:
            assert math.exp(-eta * alpha * alpha) < 1e-8, (alpha, eta)

    def test_nan_error_fails_its_row(self):
        # a NaN at a later grid point must not be folded away by an earlier finite error
        def spectrum_nan_at_second_point(alpha, eta):
            s = sigma_spectrum(alpha, eta)
            return s._replace(gamma_plus=math.nan) if alpha > 0.6 else s

        report = verify_all([(0.5, 0.9), (0.8, 0.9)], spectrum_fn=spectrum_nan_at_second_point)
        rows = {c.name: c for c in report.checks}
        for name in ("spectrum_eigenvalues", "spectrum_invariants"):
            assert not rows[name].passed
            assert math.isnan(rows[name].max_err)
        assert rows["basis_matrix_vs_numeric"].passed

    def test_rows_share_each_oracle_value(self, monkeypatch):
        """One default run builds each ECS scenario and each two-level matrix once.

        The 64 ECS keys are 16 points x 2 references x 2 cutoffs (base and
        doubled); without sharing, truncation_stability takes the 32 base
        values again, the two mixture rows build the 16 reference-free base
        scenarios again, and the two spectrum rows build every matrix twice.
        """
        build = qfi_oracle.build_scenario
        qfi = qfi_oracle.scenario_qfi
        two_level = qfi_oracle.two_level_matrix_numeric
        built = {}  # id -> (scenario, key); the scenario is held so its id is not reused
        builds, qfi_calls, two_level_calls = (collections.Counter() for _ in range(3))

        def counting_build(probe, reference, truncation=None):
            scenario = build(probe, reference, truncation)
            if probe.family == "ecs":
                key = (probe.alpha, probe.eta, reference, truncation.n_max)
                built[id(scenario)] = (scenario, key)
                builds[key] += 1
            return scenario

        def counting_qfi(scenario):
            if id(scenario) in built:
                qfi_calls[built[id(scenario)][1]] += 1
            return qfi(scenario)

        def counting_two_level(alpha, eta):
            two_level_calls[alpha, eta] += 1
            return two_level(alpha, eta)

        monkeypatch.setattr(qfi_oracle, "build_scenario", counting_build)
        monkeypatch.setattr(qfi_oracle, "scenario_qfi", counting_qfi)
        monkeypatch.setattr(qfi_oracle, "two_level_matrix_numeric", counting_two_level)
        report = verify_all()
        assert report.passed, report.render()
        assert len(builds) == 64
        assert sum(builds.values()) == 64
        assert len(qfi_calls) == 64
        assert sum(qfi_calls.values()) == 64
        assert len(two_level_calls) == 16
        assert sum(two_level_calls.values()) == 16

    def test_a_failing_shared_value_fails_only_the_rows_that_need_it(self, monkeypatch):
        # a cached value is never an exception, so every row that needs it fails on its own
        build = qfi_oracle.build_scenario

        def build_without_reference_fails(probe, reference, *args):
            if probe.family == "ecs" and reference == WITHOUT_REFERENCE:
                raise TruncationTooSmall("injected reference-free failure")
            return build(probe, reference, *args)

        monkeypatch.setattr(qfi_oracle, "build_scenario", build_without_reference_fails)
        rows = {c.name: c for c in verify_all().checks}
        for name in (
            "noref_closed_vs_oracle",
            "truncation_stability",
            "dephased_pipeline_consistency",
            "generator_equivalence",
        ):
            assert not rows[name].passed
            assert rows[name].detail == "error: injected reference-free failure"
        for name in (
            "ref_closed_vs_oracle",
            "bs_vs_kraus_channel",
            "spectrum_eigenvalues",
            "basis_matrix_vs_numeric",
            "noon_closed_vs_oracle",
        ):
            assert rows[name].passed, rows[name]

    def test_spectrum_rows_count_the_points_they_check(self):
        # the three 2x2 rows skip eta 0, and their details say so
        rows = {c.name: c for c in verify_all([(0.5, 0.0)]).checks}
        assert rows["spectrum_eigenvalues"].detail == "0 points vs 2x2 eigensolve"
        assert rows["basis_matrix_vs_numeric"].detail == "0 points, entrywise"

    def test_single_point_grid_passes(self):
        report = verify_all([(0.5, 1.0)])
        assert report.passed, report.render()

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            verify_all([])

    @pytest.mark.parametrize(
        "grid, error",
        [
            ([(math.nan, 0.9)], ValueError),
            ([(0.0, 0.9)], ValueError),
            ([(0.5, 1.5)], InvalidEta),
            ([(0.5, math.nan)], InvalidEta),
        ],
    )
    def test_domain_rejected_before_any_check(self, grid, error):
        with pytest.raises(error):
            verify_all(grid)

    @given(
        alpha=st.floats(-3.0, math.log10(3.0)).map(lambda u: 10.0**u),
        eta=st.floats(-300.0, 0.0).map(lambda u: 10.0**u),
    )
    # at eta |alpha|^2 = 3.16e-16 the branch overlap p is within 3.2e-16 of 1, at the
    # domain's corner 1e-306 within 1e-306, and at eta 1e-63 NOON(5)'s lossy entries
    # are subnormal
    @example(alpha=1.0, eta=3.16e-16)
    @example(alpha=1e-3, eta=1e-300)
    @example(alpha=1.0, eta=1e-63)
    @settings(max_examples=30, deadline=None)
    def test_report_fails_only_where_double_precision_runs_out(self, alpha, eta):
        """Which rows of a one-point report may fail, as a function of the point alone.

        Only the NOON row may, and only where a tested order's F or eta^n
        is subnormal.
        """
        rows = {c.name: c for c in verify_all([(alpha, eta)]).checks}
        subnormal = any(
            0.0 < qfi_noon(n, eta).value < 2 * n * n * sys.float_info.min
            or 0.0 < eta**n < 2 * sys.float_info.min
            for n in NOON_ORDERS
        )
        for name, row in rows.items():
            if name != "noon_closed_vs_oracle":
                assert row.passed, row
        if not subnormal:
            assert rows["noon_closed_vs_oracle"].passed, rows["noon_closed_vs_oracle"]

    def test_oracle_rows_read_the_point_tolerances(self):
        rows = {c.name: c.tolerance for c in verify_all([(0.5, 1.0)]).checks}
        assert rows["noref_closed_vs_oracle"] == ORACLE_POINT_TOL["ecs", WITHOUT_REFERENCE]
        assert rows["ref_closed_vs_oracle"] == ORACLE_POINT_TOL["ecs", WITH_REFERENCE]
        for reference in (WITH_REFERENCE, WITHOUT_REFERENCE):
            assert rows["noon_closed_vs_oracle"] == ORACLE_POINT_TOL["noon", reference]

    def test_render_and_csv_shape(self):
        report = verify_all([(0.5, 1.0)])
        text = report.render()
        assert "overall: PASS" in text
        csv = report.to_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == "check,passed,max_err,tolerance,detail"
        assert len(lines) == 1 + len(report.checks)
        # details must not smuggle extra commas into the csv
        assert all(line.count(",") == 4 for line in lines[1:])

    def test_corrupted_spectrum_is_caught(self):
        report = verify_all([(0.8, 0.9)], spectrum_fn=_spectrum_without_factor_four)
        assert not report.passed
        rows = {c.name: c for c in report.checks}
        assert not rows["spectrum_eigenvalues"].passed
        assert not rows["spectrum_invariants"].passed
        # the corruption is targeted: the oracle comparisons stay green
        assert rows["noref_closed_vs_oracle"].passed
        assert rows["ref_closed_vs_oracle"].passed

    def test_corrupted_basis_matrix_is_caught(self):
        report = verify_all([(0.8, 0.9)], basis_matrix_fn=_basis_with_spurious_coherence_factor)
        assert not report.passed
        rows = {c.name: c for c in report.checks}
        assert not rows["basis_matrix_vs_numeric"].passed
        assert rows["spectrum_eigenvalues"].passed
