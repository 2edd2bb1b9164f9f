"""First-principles QFI on the truncated Fock space.

Everything here is assembled from generic pieces: probe vectors, Kraus
loss, eigendecomposition, and the spectral QFI double sum

    F = sum_{i,j} 2 (p_i - p_j)^2 / (p_i + p_j) |<i|G|j>|^2.

No analytic structure of the ECS enters, so agreement with qfi_analytic is
independent evidence rather than a tautology.

Scenario semantics. With a reference beam the probe is the lossy ECS
itself, a single density operator. Without one, the total photon number of
the input can be read out nondestructively before the interferometer (a
number measurement needs no phase reference), so the experimenter holds a
labeled ensemble of fixed-total-photon states and the Fisher information
averages over the labels. build_scenario keeps the labels as separate
weighted components; scenario_mixture deliberately discards them, which
reproduces the plain dephase-then-lose pipeline and strictly less
information once loss mixes neighboring sectors.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channels import (
    _kraus_loss,
    apply_loss,
    apply_loss_via_bs,
    phase_average,
    single_arm_generator,
    two_arm_generator,
)
from .exceptions import (
    DegenerateSpectrum,
    DimensionMismatch,
    InvalidWeights,
    NegativeEigenvalue,
    PhaseFisherError,
)
from .fock_core import (
    DensityOperator,
    FockTruncation,
    StateVector,
    coherent_vector,
    truncation_for_tolerance,
)
from .qfi_analytic import (
    QFIResult,
    basis_overlap_matrix,
    qfi_ecs_noref,
    qfi_ecs_noref_blocksum,
    qfi_ecs_ref,
    qfi_ecs_ref_asymptotic,
    qfi_noon,
    sigma_spectrum,
)
from .states import ProbeSpec, alpha_for_mean_photon, ecs_vector, noon_vector

WITH_REFERENCE = "with"
WITHOUT_REFERENCE = "without"

# closed forms must match the oracle at least this tightly, at each point of
# `point --oracle` and of the three oracle rows of verify_all
ORACLE_POINT_TOL = {
    ("ecs", WITHOUT_REFERENCE): 1e-6,
    ("ecs", WITH_REFERENCE): 1e-8,
    ("noon", WITH_REFERENCE): 1e-9,
    ("noon", WITHOUT_REFERENCE): 1e-9,
}

DEFAULT_GRID_ALPHAS = (0.5, 1.0, 1.5, 2.0)
DEFAULT_GRID_ETAS = (0.6, 0.9, 0.99, 1.0)
NOON_ORDERS = (1, 2, 3, 5)

# e^{-eta alpha^2} < 1e-8 at each, where the asymptotic form is in regime
ASYMPTOTIC_POINTS = ((5.0, 0.9), (4.5, 0.99), (5.0, 0.99))

_CHECK_ERRORS = (PhaseFisherError, ValueError, np.linalg.LinAlgError)

# coherent tail weight sum_{n > n_max} |c_n|^2 that picks the ECS oracle's cutoff
ECS_TAIL_TOL = 1e-12


def _ecs_cutoff(alpha: complex) -> FockTruncation:
    """The smallest cutoff whose coherent tail at alpha is below ECS_TAIL_TOL, plus 2.

    A rule of alpha alone. Every state built on it is held to the one tail
    rule, a tail of at most NORM_ATOL (coherent_vector's gate), and
    verify_all's truncation_stability row checks it against its double.
    """
    return FockTruncation(truncation_for_tolerance(alpha, ECS_TAIL_TOL).n_max + 2)


def qfi_numeric(rho: DensityOperator, generator: np.ndarray) -> QFIResult:
    """Spectral QFI sum over the eigenpairs of rho, one stored component at a time.

    generator is the diagonal of G over the basis of rho's cutoff. The sum
    is evaluated on the support of rho only, which is exact for a diagonal
    generator: every basis state outside the support is a zero-weight
    eigenvector of rho and an eigenvector of G, so its pair contributions
    vanish identically (the support-restricted QFI;
    Liu et al., J. Phys. A 53, 023001 (2020)). By the same argument the QFI
    is the sum over rho.parts, the connected components of its exact
    nonzeros. Each component is scaled exactly by a power of two to a
    trace in [1/2, 1) for its eigensolve: an eigenvalue below -1e-12 there
    raises NegativeEigenvalue, a larger negative one is clipped to 0, and
    every pair with p_i + p_j > 0 counts.
    """
    if len(generator) != rho.truncation.dim:
        raise DimensionMismatch(
            f"generator of length {len(generator)} for a state of dimension {rho.truncation.dim}"
        )
    g = generator[rho.support]
    value = 0.0
    for members, blocks in rho.parts:  # a stack of equal-size components
        if members.shape[1] == 1:  # one state: its entry's frexp mantissa, and no pair
            w, v = np.frexp(blocks[:, 0, 0].real)[0], None
        else:
            _, exponent = np.frexp(np.trace(blocks, axis1=1, axis2=2).real)
            shift = -exponent[:, None, None]
            w, v = np.linalg.eigh(np.ldexp(blocks.real, shift) + 1j * np.ldexp(blocks.imag, shift))
        if w.min() < -1e-12:
            raise NegativeEigenvalue(f"eigenvalue {w.min():.3e} of a trace-scaled component")
        if v is None:
            continue
        w = np.clip(w, 0.0, None)
        gt = v.conj().transpose(0, 2, 1) @ (g[members][:, :, None] * v)
        diff = w[:, :, None] - w[:, None, :]
        den = w[:, :, None] + w[:, None, :]
        ratio = np.zeros_like(den)
        # the ratio first, then the difference: (w_i - w_j)^2 would underflow
        np.divide(diff, den, out=ratio, where=den > 0.0)
        value += float(np.sum(np.ldexp(np.sum(2.0 * ratio * diff * np.abs(gt) ** 2, axis=(1, 2)), exponent)))
    return QFIResult(value)


@dataclass(frozen=True)
class Scenario:
    """A weighted ensemble of density operators.

    Reference-beam scenarios hold a single unit-weight component; the
    reference-free scenario holds one component per total-photon sector of
    nonzero weight. Every component sits on the same cutoff, the probe's.
    """

    components: tuple[tuple[float, DensityOperator], ...]

    def __post_init__(self) -> None:
        if not self.components:
            raise InvalidWeights("scenario needs at least one component")
        total = 0.0
        for weight, _ in self.components:
            if weight <= 0.0:
                raise InvalidWeights(f"component weight {weight} must be positive")
            total += weight
        if total > 1.0 + 1e-10:
            raise InvalidWeights(f"component weights sum to {total} > 1")
        cutoffs = {rho.truncation.n_max for _, rho in self.components}
        if len(cutoffs) > 1:
            raise DimensionMismatch(f"components on different cutoffs n_max={sorted(cutoffs)}")


def _probe_vector(probe: ProbeSpec, trunc: FockTruncation) -> StateVector:
    if probe.family == "noon":
        return noon_vector(probe.n, trunc)
    return ecs_vector(probe.alpha, trunc)


def _sectors(psi: StateVector) -> tuple[list[float], list[tuple[np.ndarray, np.ndarray]]]:
    """A pure state's total-photon sectors: their weights and normalized (support, block) pairs.

    Only the occupied basis states are visited, so a sector costs its own
    support rather than a pass over the whole two-mode basis. Each sector's
    amplitudes are scaled by a power of two, to a largest modulus in
    [1/2, 1), before they are squared. The scaling is exact, so a sector
    whose squares stay normal is normalized as by a plain division by the
    root of its weight, and one whose squares would be subnormal still gets
    trace 1. Every sector is kept whose weight is not exactly 0.
    """
    amp = psi.amplitudes
    occupied = np.flatnonzero(amp)
    totals = psi.truncation.totals()[occupied]
    weights, sectors = [], []
    for n in range(int(totals.max()) + 1):
        support = occupied[totals == n]
        sector = amp[support]
        _, exponent = math.frexp(float(np.abs(sector).max(initial=0.0)))
        sector = np.ldexp(sector.real, -exponent) + 1j * np.ldexp(sector.imag, -exponent)
        norm2 = float(np.sum(np.abs(sector) ** 2))
        weight = math.ldexp(norm2, 2 * exponent)
        if weight == 0.0:
            continue
        sector /= math.sqrt(norm2)
        weights.append(weight)
        sectors.append((support, np.outer(sector, sector.conj())))
    return weights, sectors


def build_scenario(
    probe: ProbeSpec, reference: str, truncation: FockTruncation | None = None
) -> Scenario:
    """Assemble the numeric state(s) seen by the estimator.

    "with": the probe goes through the loss channel intact.
    "without": the sector label from the input number readout is kept, so
    the result is an ensemble rather than the label-free mixture (see the
    module docstring; scenario_mixture gives the label-free state).

    truncation = None builds a NOON probe on the smallest space that holds
    it and an ECS probe on _ecs_cutoff(alpha).
    """
    if reference not in (WITH_REFERENCE, WITHOUT_REFERENCE):
        raise ValueError(f"reference must be 'with' or 'without', got {reference!r}")
    if truncation is None:
        truncation = FockTruncation(probe.n) if probe.family == "noon" else _ecs_cutoff(probe.alpha)
    psi = _probe_vector(probe, truncation)
    if reference == WITH_REFERENCE:
        return Scenario(((1.0, apply_loss(psi.density(), probe.eta)),))
    weights, sectors = _sectors(psi)
    # one Kraus pass over every sector; no sector is built as an operator
    return Scenario(tuple(zip(weights, _kraus_loss(sectors, probe.eta, truncation))))


def scenario_qfi(scenario: Scenario) -> QFIResult:
    """Weighted sum of per-component QFI values under the two-arm generator."""
    # every component sits on the same cutoff, so one generator serves them all
    generator = two_arm_generator(scenario.components[0][1].truncation)
    total = 0.0
    for weight, rho in scenario.components:
        total += weight * qfi_numeric(rho, generator).value
    return QFIResult(total)


def scenario_mixture(scenario: Scenario) -> DensityOperator:
    """Forget the component labels: the plain weighted sum as one operator.

    For the reference-free ECS this equals dephasing followed by loss of
    the full probe, and its QFI drops below the ensemble value once loss
    couples neighboring sectors.
    """
    support = functools.reduce(np.union1d, (rho.support for _, rho in scenario.components))
    acc = sum(weight * rho.on(support) for weight, rho in scenario.components)
    return DensityOperator(support, acc, scenario.components[0][1].truncation)


def two_level_matrix_numeric(alpha: complex, eta: float) -> np.ndarray:
    """Numeric 2x2 matrix of the lossy ECS in its Gram-Schmidt basis, on _ecs_cutoff(alpha).

    Built entirely from vectors and the Kraus channel; arbitrates the
    closed-form spectrum and basis matrix (and in particular their two
    easy-to-mistranscribe coefficients) without sharing any algebra. For
    unit vectors with a real overlap p, 1 - p = ||delta||^2 / 2 with
    delta = psi2 - psi1 has no cancellation, so the second basis vector
    (psi2 - p psi1)/sqrt(1 - p^2) = (delta + (1 - p) psi1)/sqrt((1 - p)(1 + p))
    keeps full precision as p nears 1.
    """
    trunc = _ecs_cutoff(alpha)
    sigma = apply_loss(ecs_vector(alpha, trunc).density(), eta)
    d = trunc.dim_single
    vac = np.zeros(d, dtype=complex)
    vac[0] = 1.0
    c = coherent_vector(math.sqrt(eta) * alpha, trunc)
    psi1 = np.kron(c, vac)
    psi2 = np.kron(vac, c)
    p = float(np.vdot(psi1, psi2).real)
    delta = psi2 - psi1
    one_minus_p = float(np.vdot(delta, delta).real) / 2.0
    if not one_minus_p > 0.0:
        raise DegenerateSpectrum(
            f"the two lossy branches coincide in double precision (1 - p = {one_minus_p!r})"
        )
    e1 = psi1
    e2 = (delta + one_minus_p * e1) / math.sqrt(one_minus_p * (1.0 + p))
    basis, block = (e1[sigma.support], e2[sigma.support]), sigma.on(sigma.support)
    m = np.empty((2, 2))
    for i in range(2):
        for j in range(2):
            m[i, j] = float(np.vdot(basis[i], block @ basis[j]).real)
    return m


@dataclass(frozen=True)
class CheckResult:
    """One verification row: worst error over its points against a tolerance."""

    name: str
    passed: bool
    max_err: float
    tolerance: float
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        width = max(len(c.name) for c in self.checks) + 2
        lines = [f"{'check':<{width}}{'status':<8}{'max error':<14}{'tolerance':<12}detail"]
        lines.append("-" * (width + 34 + 6))
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(
                f"{c.name:<{width}}{status:<8}{c.max_err:<14.3e}{c.tolerance:<12.1e}{c.detail}"
            )
        done = sum(1 for c in self.checks if c.passed)
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'} ({done}/{len(self.checks)} checks)")
        return "\n".join(lines)

    def to_csv(self) -> str:
        rows = ["check,passed,max_err,tolerance,detail"]
        for c in self.checks:
            detail = c.detail.replace(",", ";")
            rows.append(
                f"{c.name},{str(c.passed).lower()},{c.max_err!r},{c.tolerance!r},{detail}"
            )
        return "\n".join(rows) + "\n"


def _run_check(name: str, tolerance: float, body) -> CheckResult:
    """Failures never escape: any numerical error becomes a failed row.

    body returns its errors and a detail; the row reports the worst, and a
    NaN among them is the worst (np.max propagates it, and NaN <= tolerance
    is false).
    """
    try:
        errs, detail = body()
    except _CHECK_ERRORS as exc:
        return CheckResult(name, False, math.inf, tolerance, f"error: {exc}")
    err = float(np.max(errs, initial=0.0))
    return CheckResult(name, bool(err <= tolerance), err, tolerance, detail)


def _rel(value: float, reference: float) -> float:
    """Relative error: 0 when the two are equal (both 0 included), inf when only reference is 0."""
    if value == reference:
        return 0.0
    if reference == 0.0:
        return math.inf
    return abs(value - reference) / abs(reference)


def _max_entry_gap(a: DensityOperator, b: DensityOperator) -> float:
    """Largest entrywise |a - b|, taken over the union of the two supports."""
    support = np.union1d(a.support, b.support)
    return float(np.max(np.abs(a.on(support) - b.on(support))))


def verify_all(
    grid: list[tuple[float, float]] | None = None,
    *,
    spectrum_fn=sigma_spectrum,
    basis_matrix_fn=basis_overlap_matrix,
) -> VerificationReport:
    """Run every closed-form-vs-oracle comparison and invariant check.

    grid entries are (alpha, eta) points; the default covers the standard
    validation grid. Each point's states sit on _ecs_cutoff(alpha), and
    truncation_stability compares them with its double. spectrum_fn /
    basis_matrix_fn are injection seams for negative-control tests that
    feed deliberately corrupted closed forms. A grid point or cutoff that
    `point --oracle` would refuse, or a doubled cutoff past the size
    ceiling, raises before any check runs.
    """
    if grid is None:
        grid = [(a, e) for a in DEFAULT_GRID_ALPHAS for e in DEFAULT_GRID_ETAS]
    if not grid:
        raise ValueError("verification grid must be nonempty")
    # the alpha and eta domain of `point`, checked once per point
    probes = {(alpha, eta): ProbeSpec("ecs", eta, alpha=alpha) for alpha, eta in grid}
    cutoff = {alpha: _ecs_cutoff(alpha) for alpha, _ in grid}
    doubled = {alpha: FockTruncation(2 * trunc.n_max) for alpha, trunc in cutoff.items()}

    alphas = sorted(cutoff)
    etas = sorted({e for _, e in grid})
    lossy = [(a, e) for a, e in grid if e != 0.0]  # the spectrum rows skip eta 0

    # Rows share oracle values through these caches; only floats, 2x2 matrices
    # and the label-free mixtures are held. functools.cache stores no exception,
    # so a value that raises fails again in each row that needs it, and no other;
    # the reference-free base build yields two values, and its failure fails both.
    @functools.cache
    def label_free(alpha: float, eta: float) -> tuple[float, DensityOperator]:
        scenario = build_scenario(probes[alpha, eta], WITHOUT_REFERENCE, cutoff[alpha])
        return scenario_qfi(scenario).value, scenario_mixture(scenario)

    @functools.cache
    def oracle(alpha: float, eta: float, reference: str, trunc: FockTruncation) -> float:
        if reference == WITHOUT_REFERENCE and trunc == cutoff[alpha]:
            return label_free(alpha, eta)[0]
        return scenario_qfi(build_scenario(probes[alpha, eta], reference, trunc)).value

    @functools.cache
    def two_level(alpha: float, eta: float) -> np.ndarray:
        return two_level_matrix_numeric(alpha, eta)

    def noref_body():
        errs = [
            _rel(oracle(a, e, WITHOUT_REFERENCE, cutoff[a]), qfi_ecs_noref(a, e).value)
            for a, e in grid
        ]
        return errs, f"{len(grid)} points"

    def ref_body():
        errs = [
            _rel(oracle(a, e, WITH_REFERENCE, cutoff[a]), qfi_ecs_ref(a, e).value)
            for a, e in grid
        ]
        return errs, f"{len(grid)} points"

    def lossless_body():
        errs = [_rel(qfi_ecs_ref(a, 1.0).value, qfi_ecs_noref(a, 1.0).value) for a in alphas]
        return errs, f"{len(alphas)} points at eta=1"

    def sector_sum_body():
        errs = []
        for alpha, eta in grid:
            block = qfi_ecs_noref_blocksum(alpha, eta, cutoff[alpha])
            errs.append(_rel(block.value, qfi_ecs_noref(alpha, eta).value))
        return errs, f"{len(grid)} points"

    def noon_body():
        errs = []
        for n in NOON_ORDERS:
            for eta in etas:
                probe = ProbeSpec("noon", eta, n=n)
                closed = qfi_noon(n, eta).value
                for reference in (WITH_REFERENCE, WITHOUT_REFERENCE):
                    errs.append(_rel(scenario_qfi(build_scenario(probe, reference)).value, closed))
        return errs, f"orders {NOON_ORDERS}, both references"

    def asymptotic_body():
        errs = [
            _rel(qfi_ecs_ref_asymptotic(alpha, eta).value, qfi_ecs_ref(alpha, eta).value)
            for alpha, eta in ASYMPTOTIC_POINTS
        ]
        return errs, f"{len(ASYMPTOTIC_POINTS)} large-field points"

    def shot_noise_body():
        eta = 0.9
        n_mean = 100.0
        alpha = alpha_for_mean_photon(n_mean)
        ratio = qfi_ecs_ref(alpha, eta).value / (eta * n_mean)
        return [abs(ratio - 1.0)], f"F/(eta N) at N={n_mean:g}, eta={eta:g}"

    def bs_body():
        errs = []
        for alpha in alphas:
            for eta in (0.6, 0.9):
                rho = ecs_vector(alpha, cutoff[alpha]).density()
                via_kraus = apply_loss(rho, eta)
                via_bs = apply_loss_via_bs(rho, eta)
                errs.append(_max_entry_gap(via_kraus, via_bs))
        return errs, f"{len(errs)} points, entrywise"

    def spectrum_eigen_body():
        errs = []
        for alpha, eta in lossy:
            s = spectrum_fn(alpha, eta)
            lo, hi = np.linalg.eigvalsh(two_level(alpha, eta))
            errs += [abs(s.gamma_plus - hi), abs(s.gamma_minus - lo)]
        return errs, f"{len(grid)} points vs 2x2 eigensolve"

    def spectrum_invariant_body():
        errs = []
        for alpha, eta in lossy:
            s = spectrum_fn(alpha, eta)
            errs += [
                abs(s.gamma_plus + s.gamma_minus - 1.0),
                abs(s.gamma_plus * s.gamma_minus - s.det_sigma),
            ]
        return errs, "trace and determinant identities"

    def basis_matrix_body():
        errs = [float(np.max(np.abs(basis_matrix_fn(a, e) - two_level(a, e)))) for a, e in lossy]
        return errs, f"{len(grid)} points, entrywise"

    def pipeline_body():
        errs = []
        for alpha, eta in grid:
            direct = phase_average(apply_loss(ecs_vector(alpha, cutoff[alpha]).density(), eta))
            errs.append(_max_entry_gap(label_free(alpha, eta)[1], direct))
        return errs, f"{len(errs)} points: sector merge equals dephase-then-lose"

    def generator_body():
        errs = []
        for alpha, eta in grid:
            mix = label_free(alpha, eta)[1]
            two = qfi_numeric(mix, two_arm_generator(mix.truncation)).value
            one = qfi_numeric(mix, single_arm_generator(mix.truncation)).value
            errs.append(_rel(one, two))
        return errs, f"{len(grid)} points, single-arm vs two-arm"

    def stability_body():
        errs = [
            _rel(oracle(a, e, reference, cutoff[a]), oracle(a, e, reference, doubled[a]))
            for a, e in grid
            for reference in (WITH_REFERENCE, WITHOUT_REFERENCE)
        ]
        return errs, f"{len(grid)} points, cutoff doubled"

    checks = (
        _run_check("noref_closed_vs_oracle", ORACLE_POINT_TOL["ecs", WITHOUT_REFERENCE], noref_body),
        _run_check("ref_closed_vs_oracle", ORACLE_POINT_TOL["ecs", WITH_REFERENCE], ref_body),
        _run_check("lossless_equivalence", 1e-9, lossless_body),
        _run_check("sector_sum_identity", 1e-10, sector_sum_body),
        _run_check("noon_closed_vs_oracle", ORACLE_POINT_TOL["noon", WITH_REFERENCE], noon_body),
        _run_check("asymptotic_regime", 5e-3, asymptotic_body),
        _run_check("shot_noise_approach", 5e-2, shot_noise_body),
        _run_check("bs_vs_kraus_channel", 1e-9, bs_body),
        _run_check("spectrum_eigenvalues", 1e-10, spectrum_eigen_body),
        _run_check("spectrum_invariants", 1e-12, spectrum_invariant_body),
        _run_check("basis_matrix_vs_numeric", 1e-10, basis_matrix_body),
        _run_check("dephased_pipeline_consistency", 1e-12, pipeline_body),
        _run_check("generator_equivalence", 1e-9, generator_body),
        _run_check("truncation_stability", 1e-8, stability_body),
    )
    return VerificationReport(checks)
