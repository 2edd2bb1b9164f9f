"""Closed-form QFI values, spectral data identities, and their internal consistency."""

import math
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from perfbench.reference import f_noon, f_noref, f_ref

from phasefisher.exceptions import (
    InvalidEta,
    InvalidWeights,
    NonpositiveFisher,
    NumericalOverflow,
)
from phasefisher.fock_core import default_truncation
from phasefisher.qfi_analytic import (
    ASYMPTOTIC,
    CLOSED_FORM,
    GAMMA_MINUS_FLOOR,
    QFIResult,
    basis_overlap_matrix,
    qfi_ecs_noref,
    qfi_ecs_noref_blocksum,
    qfi_ecs_ref,
    qfi_ecs_ref_asymptotic,
    qfi_noon,
    qfi_noon_continuous,
    qfi_two_level,
    sensitivity,
    sigma_spectrum,
)
from phasefisher.states import ecs_normalization

# Frozen on first evaluation and cross-checked against the numeric oracle;
# any drift here means the formulas themselves changed.
NOREF_ALPHA1_ETA09 = 1.1311464579922468
NOREF_ALPHA2_ETA09 = 10.90084403934317
REF_ALPHA1_ETA09 = 1.1716383893043514
LOSSLESS_ALPHA05 = 0.1756801565268119
LOSSLESS_ALPHA1 = 1.4621171572600098
LOSSLESS_ALPHA2 = 19.640275800758168
GAMMA_PLUS_ALPHA1_ETA09 = 0.9793576971423297


class TestNoRef:
    def test_frozen_values(self):
        assert qfi_ecs_noref(1.0, 0.9).value == pytest.approx(NOREF_ALPHA1_ETA09, rel=1e-14)
        assert qfi_ecs_noref(2.0, 0.9).value == pytest.approx(NOREF_ALPHA2_ETA09, rel=1e-14)
        assert qfi_ecs_noref(1.0, 1.0).value == pytest.approx(LOSSLESS_ALPHA1, rel=1e-14)

    def test_zero_cases(self):
        assert qfi_ecs_noref(0.0, 0.9).value == 0.0
        assert qfi_ecs_noref(1.0, 0.0).value == 0.0

    def test_eta_validated(self):
        with pytest.raises(InvalidEta):
            qfi_ecs_noref(1.0, 1.2)

    def test_depends_on_modulus_only(self):
        assert qfi_ecs_noref(1.0j, 0.8).value == qfi_ecs_noref(1.0, 0.8).value

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("eta", [0.6, 0.9, 1.0])
    def test_blocksum_matches_closed_form(self, alpha, eta):
        block = qfi_ecs_noref_blocksum(alpha, eta, default_truncation(alpha))
        closed = qfi_ecs_noref(alpha, eta)
        assert abs(block.value - closed.value) / closed.value <= 1e-10


class TestRef:
    def test_frozen_value(self):
        assert qfi_ecs_ref(1.0, 0.9).value == pytest.approx(REF_ALPHA1_ETA09, rel=1e-14)

    def test_zero_cases(self):
        assert qfi_ecs_ref(0.0, 0.9).value == 0.0
        assert qfi_ecs_ref(1.0, 0.0).value == 0.0

    @given(alpha=st.floats(0.1, 3.0), eta=st.floats(0.05, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_closed_form_equals_spectral_route(self, alpha, eta):
        """The paper's route: generator variances in the two eigenstates, their cross term, qfi_two_level.

        Over the nonorthogonal pair <Psi_1|G|Psi_1> = -<Psi_2|G|Psi_2> =
        x/2 and <Psi_i|G^2|Psi_i> = (x + x^2)/4 with x = eta |alpha|^2;
        both cross matrix elements vanish.
        """
        s = sigma_spectrum(alpha, eta)
        x = eta * alpha * alpha
        g1 = 0.5 * x
        g2 = 0.25 * (x + x * x)
        var_plus = (s.c_plus**2 + s.d_minus**2) * g2 - ((s.c_plus**2 - s.d_minus**2) * g1) ** 2
        var_minus = (s.c_minus**2 + s.d_plus**2) * g2 - ((s.c_minus**2 - s.d_plus**2) * g1) ** 2
        cross = (s.c_plus * s.c_minus - s.d_minus * s.d_plus) * g1
        spectral = qfi_two_level(s.gamma_plus, s.gamma_minus, var_plus, var_minus, cross * cross)
        closed = qfi_ecs_ref(alpha, eta).value
        assert abs(closed - spectral) <= 1e-12 * max(abs(spectral), 1.0)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_lossless_limit_closes_the_scenario_gap(self, alpha):
        """At eta = 1 the reference beam adds nothing."""
        ref = qfi_ecs_ref(alpha, 1.0).value
        noref = qfi_ecs_noref(alpha, 1.0).value
        assert abs(ref - noref) / noref <= 1e-12
        a2 = alpha * alpha
        explicit = 2.0 * ecs_normalization(alpha) ** 2 * (a2 * a2 + a2)
        assert ref == pytest.approx(explicit, rel=1e-12)

    def test_lossless_frozen_values(self):
        for alpha, want in ((0.5, LOSSLESS_ALPHA05), (1.0, LOSSLESS_ALPHA1), (2.0, LOSSLESS_ALPHA2)):
            assert qfi_ecs_ref(alpha, 1.0).value == pytest.approx(want, rel=1e-13)

    def test_scenario_ordering_flips_with_amplitude(self):
        # the reference beam wins at moderate amplitude, but its alpha^4
        # coherence term decays twice as fast under loss, so the
        # sector-resolved scenario takes over at large fields
        assert qfi_ecs_ref(1.0, 0.9).value > qfi_ecs_noref(1.0, 0.9).value
        assert qfi_ecs_ref(2.5, 0.9).value < qfi_ecs_noref(2.5, 0.9).value


class TestSpectrum:
    def test_frozen_eigenvalues(self):
        s = sigma_spectrum(1.0, 0.9)
        assert s.gamma_plus == pytest.approx(GAMMA_PLUS_ALPHA1_ETA09, rel=1e-13)
        assert s.gamma_minus == pytest.approx(1.0 - GAMMA_PLUS_ALPHA1_ETA09, rel=1e-10)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("eta", [0.3, 0.6, 0.9])
    def test_trace_and_determinant(self, alpha, eta):
        s = sigma_spectrum(alpha, eta)
        assert s.gamma_plus + s.gamma_minus == pytest.approx(1.0, abs=1e-14)
        assert s.gamma_plus * s.gamma_minus == pytest.approx(s.det_sigma, abs=1e-15)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("eta", [0.3, 0.6, 0.9])
    def test_coefficients_collapse_to_overlap_expressions(self, alpha, eta):
        # The full radical expressions simplify on paper; the computed values
        # must land on the simplified ones or the derivation drifted.
        s = sigma_spectrum(alpha, eta)
        assert s.zeta_plus == pytest.approx(math.sqrt((1.0 + s.p) / 2.0), abs=1e-12)
        assert s.zeta_minus == pytest.approx(math.sqrt((1.0 - s.p) / 2.0), abs=1e-12)
        assert s.c_plus == pytest.approx(s.d_minus, abs=1e-12)
        assert s.c_minus == pytest.approx(-s.d_plus, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.7, 1.4])
    @pytest.mark.parametrize("eta", [0.4, 0.85])
    def test_eigenvectors_reconstruct_basis_matrix(self, alpha, eta):
        s = sigma_spectrum(alpha, eta)
        root = math.sqrt(1.0 - s.p * s.p)
        v_plus = np.array([s.c_plus + s.p * s.d_minus, root * s.d_minus])
        v_minus = np.array([s.c_minus + s.p * s.d_plus, root * s.d_plus])
        assert float(v_plus @ v_plus) == pytest.approx(1.0, abs=1e-12)
        assert float(v_minus @ v_minus) == pytest.approx(1.0, abs=1e-12)
        assert float(v_plus @ v_minus) == pytest.approx(0.0, abs=1e-12)
        rebuilt = s.gamma_plus * np.outer(v_plus, v_plus) + s.gamma_minus * np.outer(
            v_minus, v_minus
        )
        m = basis_overlap_matrix(alpha, eta)
        assert np.allclose(rebuilt, m, atol=1e-12)
        assert s.sigma3_expect == pytest.approx(m[0, 0] - m[1, 1], abs=1e-12)

    def test_invariants_on_dense_grid(self):
        worst_trace = worst_det = worst_gram = 0.0
        for alpha in np.linspace(0.1, 3.0, 20):
            for eta in np.linspace(0.05, 1.0, 20):
                s = sigma_spectrum(float(alpha), float(eta))
                worst_trace = max(worst_trace, abs(s.gamma_plus + s.gamma_minus - 1.0))
                worst_det = max(worst_det, abs(s.gamma_plus * s.gamma_minus - s.det_sigma))
                root = math.sqrt(1.0 - s.p * s.p)
                v_plus = np.array([s.c_plus + s.p * s.d_minus, root * s.d_minus])
                v_minus = np.array([s.c_minus + s.p * s.d_plus, root * s.d_plus])
                worst_gram = max(
                    worst_gram,
                    abs(float(v_plus @ v_plus) - 1.0),
                    abs(float(v_minus @ v_minus) - 1.0),
                    abs(float(v_plus @ v_minus)),
                )
        assert worst_trace <= 1e-12
        assert worst_det <= 1e-12
        assert worst_gram <= 1e-10

    def test_minor_weight_vanishes_without_loss(self):
        s = sigma_spectrum(1.0, 1.0)
        assert s.gamma_minus == 0.0
        assert s.gamma_minus < GAMMA_MINUS_FLOOR

    def test_undefined_corners(self):
        with pytest.raises(ValueError):
            sigma_spectrum(0.0, 0.9)
        with pytest.raises(InvalidEta):
            sigma_spectrum(1.0, 0.0)


class TestTwoLevelFormula:
    def test_pure_state_reduces_to_four_variances(self):
        assert qfi_two_level(1.0, 0.0, 2.5, 0.0, 0.0) == pytest.approx(10.0)

    def test_cross_term_enters_with_weight_sixteen(self):
        full = qfi_two_level(0.7, 0.3, 1.0, 1.0, 0.25)
        no_cross = qfi_two_level(0.7, 0.3, 1.0, 1.0, 0.0)
        assert no_cross - full == pytest.approx(16.0 * 0.7 * 0.3 * 0.25)

    def test_cross_term_dropped_below_floor(self):
        tiny = GAMMA_MINUS_FLOOR / 10.0
        value = qfi_two_level(1.0 - tiny, tiny, 1.0, 5.0, 1e12)
        assert value == pytest.approx(4.0 * ((1.0 - tiny) + tiny * 5.0))

    def test_weights_validated(self):
        with pytest.raises(InvalidWeights):
            qfi_two_level(-0.1, 0.5, 1.0, 1.0, 0.0)
        with pytest.raises(InvalidWeights):
            qfi_two_level(0.8, 0.3, 1.0, 1.0, 0.0)


class TestNoon:
    @pytest.mark.parametrize("n,eta", [(1, 0.9), (3, 0.7), (5, 1.0)])
    def test_closed_form(self, n, eta):
        assert qfi_noon(n, eta).value == pytest.approx(n * n * eta**n, rel=1e-15)

    def test_continuous_agrees_at_integers(self):
        for n in (1, 2, 7):
            assert qfi_noon_continuous(float(n), 0.8) == pytest.approx(
                qfi_noon(n, 0.8).value, rel=1e-13
            )

    def test_continuous_validation(self):
        with pytest.raises(ValueError):
            qfi_noon_continuous(0.0, 0.9)
        with pytest.raises(ValueError):
            qfi_noon_continuous(-1.0, 0.9)
        assert qfi_noon_continuous(3.0, 0.0) == 0.0

    def test_order_validated(self):
        with pytest.raises(ValueError):
            qfi_noon(0, 0.9)


class TestAsymptotic:
    def test_in_regime(self):
        exact = qfi_ecs_ref(5.0, 0.9).value
        approx = qfi_ecs_ref_asymptotic(5.0, 0.9).value
        assert abs(approx - exact) / exact <= 5e-3

    def test_out_of_regime_differs(self):
        # the approximation is genuinely an approximation at small fields
        exact = qfi_ecs_ref(1.0, 0.9).value
        approx = qfi_ecs_ref_asymptotic(1.0, 0.9).value
        assert abs(approx - exact) / exact > 1e-3

    def test_method_tag(self):
        assert qfi_ecs_ref_asymptotic(1.0, 0.9).method == ASYMPTOTIC
        assert qfi_ecs_ref(1.0, 0.9).method == CLOSED_FORM


class TestEtaMonotonicity:
    """Less transmission never adds information, for any of the closed forms."""

    @pytest.mark.parametrize("alpha", [0.7, 1.5, 2.5])
    def test_ecs_forms(self, alpha):
        etas = np.linspace(0.0, 1.0, 21)
        for fn in (qfi_ecs_noref, qfi_ecs_ref, qfi_ecs_ref_asymptotic):
            values = [fn(alpha, eta).value for eta in etas]
            assert np.all(np.diff(values) >= 0.0), fn.__name__

    @pytest.mark.parametrize("n", [1, 3])
    def test_noon_form(self, n):
        etas = np.linspace(0.0, 1.0, 21)
        values = [qfi_noon(n, eta).value for eta in etas]
        assert np.all(np.diff(values) >= 0.0)

    def test_noon_continuous_form(self):
        etas = np.linspace(0.0, 1.0, 21)
        values = [qfi_noon_continuous(2.6, eta) for eta in etas]
        assert np.all(np.diff(values) >= 0.0)


class TestSensitivity:
    def test_inverse_root(self):
        assert sensitivity(4.0) == pytest.approx(0.5)
        assert sensitivity(4.0, repetitions=4) == pytest.approx(0.25)

    def test_nonpositive_rejected(self):
        with pytest.raises(NonpositiveFisher):
            sensitivity(0.0)
        with pytest.raises(NonpositiveFisher):
            sensitivity(-1.0)

    def test_repetitions_validated(self):
        with pytest.raises(ValueError):
            sensitivity(1.0, repetitions=0)


def test_result_rejects_negative_value():
    with pytest.raises(ValueError):
        QFIResult(-1e-9, CLOSED_FORM)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_result_rejects_non_finite_value(value):
    with pytest.raises(NumericalOverflow):
        QFIResult(value, CLOSED_FORM)


def test_closed_form_overflow_is_typed():
    # |alpha|^2 itself overflows at alpha = 1e200
    with pytest.raises(NumericalOverflow, match="qfi_ecs_ref"):
        qfi_ecs_ref(1e200, 0.9)
    with pytest.raises(NumericalOverflow, match="qfi_noon"):
        qfi_noon(n=10**200, eta=0.9)


EPS = sys.float_info.epsilon
SMALLEST_NORMAL = sys.float_info.min
SMALLEST_SUBNORMAL = SMALLEST_NORMAL * EPS


def _spectrum_reference(a2, eta) -> dict:
    """EcsLossySpectrum in mpmath from the same closed forms; TestSpectrum ties them to the paper."""
    x, u = eta * a2, (1 - eta) * a2
    p, p_perp, q = mp.exp(-x), mp.exp(-u), mp.exp(-a2)
    one_minus_p, one_minus_p_perp = -mp.expm1(-x), -mp.expm1(-u)
    r = (p + p_perp) / (1 + q)
    d_minus, d_plus = 1 / mp.sqrt(2 * (1 + p)), 1 / mp.sqrt(2 * one_minus_p)
    return {
        "p": p,
        "p_perp": p_perp,
        "det_sigma": one_minus_p * (1 + p) * one_minus_p_perp * (1 + p_perp) / (4 * (1 + q) ** 2),
        "gamma_plus": (1 + r) / 2,
        "gamma_minus": one_minus_p * one_minus_p_perp / (2 * (1 + q)),
        "zeta_plus": mp.sqrt((1 + p) / 2),
        "zeta_minus": mp.sqrt(one_minus_p / 2),
        "c_plus": d_minus,
        "c_minus": -d_plus,
        "d_plus": d_plus,
        "d_minus": d_minus,
        "sigma3_expect": p * r,
    }


def _input_spread(f, a2, eta) -> float:
    """Summed relative change of f(a2, eta) when |alpha|^2, eta or 1 - eta moves by one epsilon.

    This is the condition number times epsilon: the error a double-precision
    evaluation cannot avoid, because it rounds exactly these three inputs.
    eta also moves by one subnormal step in eta |alpha|^2, the spacing that
    product has once it is below the normal range.
    """
    base = f(a2, eta)
    if base == 0:
        return 0.0
    moved = (
        f(a2 * (1 + EPS), eta),
        f(a2, eta * (1 + EPS) + SMALLEST_SUBNORMAL / a2),
        f(a2, 1 - (1 - eta) * (1 + EPS)),
    )
    return float(sum(abs(m / base - 1) for m in moved))


def _assert_near(name, compute, f, a2, eta):
    """compute() against the 50-digit f(a2, eta): see test_closed_forms_match_50_digit_reference."""
    ref = f(a2, eta)
    try:
        got = compute()
    except NumericalOverflow:
        assert abs(ref) > sys.float_info.max, (name, ref)
        return
    tol = (4 * EPS + 2 * _input_spread(f, a2, eta)) * abs(ref) + SMALLEST_NORMAL
    assert abs(mp.mpf(got) - ref) <= tol, (name, got, ref)


@given(
    alpha=st.floats(-4.0, 8.0).map(lambda k: 10.0**k),
    eta=st.floats(0.0, 1.0),
    n=st.integers(1, 10**6),
)
@settings(max_examples=150, deadline=None)
@example(alpha=1e8, eta=0.9, n=1)
@example(alpha=12.0, eta=0.9, n=40)
@example(alpha=1e-4, eta=5e-324, n=10**6)
def test_closed_forms_match_50_digit_reference(alpha, eta, n):
    """Every closed form and EcsLossySpectrum field is exact to double precision.

    The reference is the 50-digit mpmath value at the same double inputs.
    A value passes when |got - ref| <= (4 eps + 2 s) |ref| + 2.2e-308, with
    eps = 2.2e-16 and s the spread of the reference under the roundings of
    |alpha|^2, eta and 1 - eta that no double evaluation avoids (see
    _input_spread). The absolute 2.2e-308, the smallest normal double,
    counts 0 as correct where the true value underflows. NumericalOverflow
    passes only where the true value leaves double range: F above the
    largest double, or 1 - p so small that it rounds to 0, where d_plus =
    1/sqrt(2 (1 - p)) has no double left to be computed from; there it is
    required.
    """
    a2, eta_mp = mp.mpf(alpha) ** 2, mp.mpf(eta)

    def at(f):
        return lambda a2, eta: f(mp.sqrt(a2), eta)

    _assert_near("qfi_ecs_ref", lambda: qfi_ecs_ref(alpha, eta).value, at(f_ref), a2, eta_mp)
    _assert_near("qfi_ecs_noref", lambda: qfi_ecs_noref(alpha, eta).value, at(f_noref), a2, eta_mp)
    _assert_near("qfi_noon", lambda: qfi_noon(n, eta).value, lambda _, e: f_noon(n, e), a2, eta_mp)
    if eta == 0.0:
        return  # the spectrum is undefined there
    if -2 * mp.expm1(-eta_mp * a2) < SMALLEST_SUBNORMAL:
        with pytest.raises(NumericalOverflow):
            sigma_spectrum(alpha, eta)
        return
    s = sigma_spectrum(alpha, eta)
    for name in _spectrum_reference(a2, eta_mp):
        field = lambda a2, eta, name=name: _spectrum_reference(a2, eta)[name]
        _assert_near(name, lambda: getattr(s, name), field, a2, eta_mp)
