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
labeled ensemble of fixed-total-photon states, the classical-quantum state
sum_n |n><n| x Lambda(P_n psi psi^dag P_n), and the Fisher information is
the label average. build_scenario returns that state as one operator whose
components each belong to one sector, so the label is kept;
scenario_mixture sums the components, which discards it and reproduces the
plain dephase-then-lose pipeline, with strictly less information once loss
mixes neighboring sectors.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .channels import (
    _kraus_loss,
    apply_loss_pure,
    apply_loss_via_bs,
    phase_average,
    single_arm_generator,
    two_arm_generator,
)
from .exceptions import (
    DegenerateSpectrum,
    DimensionMismatch,
    NegativeEigenvalue,
    PhaseFisherError,
    _record,
)
from .fock_core import (
    DensityOperator,
    FockTruncation,
    _real_if_exact,
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
from .states import (
    WITH_REFERENCE,
    WITHOUT_REFERENCE,
    ProbeSpec,
    alpha_for_mean_photon,
    ecs_vector,
    noon_vector,
)

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
    is the sum over rho.parts, its components, which may be the lossy
    sectors of a reference-free scenario: the QFI of a classical-quantum
    state is the sum over its labels. Each component, whatever its own
    trace, is scaled exactly by a power of two to a trace in [1/2, 1) for
    its eigensolve, a real eigh where its imaginary parts are all exactly
    zero: an eigenvalue below -1e-12 there raises NegativeEigenvalue, a
    larger negative one is clipped to 0, and every pair with p_i + p_j > 0
    counts.
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
            blocks = _real_if_exact(blocks)  # a real eigh where every imaginary part is 0
            scaled = np.ldexp(blocks.real, shift)
            if np.iscomplexobj(blocks):
                scaled = scaled + 1j * np.ldexp(blocks.imag, shift)
            w, v = np.linalg.eigh(scaled)
            del scaled
        if w.min() < -1e-12:
            raise NegativeEigenvalue(f"eigenvalue {w.min():.3e} of a trace-scaled component")
        if v is None:
            continue
        w = np.clip(w, 0.0, None)
        gt = np.abs(v.conj().transpose(0, 2, 1) @ (g[members][:, :, None] * v)) ** 2
        del v
        diff = w[:, :, None] - w[:, None, :]
        # 2 (w_i - w_j)^2 / (w_i + w_j) |<i|G|j>|^2 in place, the ratio first, then the
        # difference: (w_i - w_j)^2 would underflow; a pair with w_i + w_j = 0 keeps its 0
        terms = w[:, :, None] + w[:, None, :]
        np.divide(diff, terms, out=terms, where=terms > 0.0)
        terms *= 2.0
        terms *= diff
        terms *= gt
        value += float(np.sum(np.ldexp(np.sum(terms, axis=(1, 2)), exponent)))
    return QFIResult(value)


def build_scenario(
    probe: ProbeSpec, reference: str, truncation: FockTruncation | None = None
) -> DensityOperator:
    """The lossy state seen by the estimator, as one operator.

    "with": the probe goes through the loss channel intact.
    "without": the sector label from the input number readout is kept:
    every occupied sector is lost in one Kraus pass, and each lossy
    component belongs to one sector (see the module docstring;
    scenario_mixture gives the label-free state).

    truncation = None builds a NOON probe on the smallest space that holds
    it and an ECS probe on _ecs_cutoff(alpha).
    """
    if reference not in (WITH_REFERENCE, WITHOUT_REFERENCE):
        raise ValueError(f"reference must be 'with' or 'without', got {reference!r}")
    if truncation is None:
        truncation = FockTruncation(probe.n) if probe.family == "noon" else _ecs_cutoff(probe.alpha)
    psi = noon_vector(probe.n, truncation) if probe.family == "noon" else ecs_vector(probe.alpha, truncation)
    if reference == WITH_REFERENCE:
        return apply_loss_pure(psi, probe.eta)
    # sector n is column n of weight 1, labelled n: its amplitudes, unnormalized
    n = truncation.totals(psi.support)
    sectors = np.arange(n.max() + 1)
    return _kraus_loss(psi.support, n, psi.amplitudes, np.ones(sectors.size), sectors, probe.eta, truncation)


def scenario_qfi(rho: DensityOperator) -> QFIResult:
    """QFI of a scenario under the two-arm generator."""
    return qfi_numeric(rho, two_arm_generator(rho.truncation))


def scenario_mixture(rho: DensityOperator) -> DensityOperator:
    """Forget the sector label: the sum of the components, stored again as one operator.

    For the reference-free ECS this equals dephasing followed by loss of
    the full probe, and its QFI drops below the labeled value once loss
    couples neighboring sectors.
    """
    return DensityOperator(rho.support, rho.on(rho.support), rho.truncation)


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
    sigma = apply_loss_pure(ecs_vector(alpha, trunc), eta)
    # the branches |sqrt(eta) alpha, 0> and |0, sqrt(eta) alpha> on sigma's support, the
    # states the matrix is taken over; a branch entry off it is one whose lossy image underflowed
    c = coherent_vector(math.sqrt(eta) * alpha, trunc)
    n1, n2 = np.divmod(sigma.support, trunc.dim_single)
    psi1, psi2 = c[n1] * (n2 == 0), c[n2] * (n1 == 0)
    p = float(np.vdot(psi1, psi2).real)
    delta = psi2 - psi1
    one_minus_p = float(np.vdot(delta, delta).real) / 2.0
    if not one_minus_p > 0.0:
        raise DegenerateSpectrum(
            f"the two lossy branches coincide in double precision (1 - p = {one_minus_p!r})"
        )
    basis = psi1, (delta + one_minus_p * psi1) / math.sqrt(one_minus_p * (1.0 + p))
    block = sigma.on(sigma.support)
    m = np.empty((2, 2))
    for i in range(2):
        for j in range(2):
            m[i, j] = float(np.vdot(basis[i], block @ basis[j]).real)
    return m


class CheckResult(_record("CheckResult", "name passed max_err tolerance detail")):
    """One verification row: worst error over its points against a tolerance."""

    __slots__ = ()


class VerificationReport(_record("VerificationReport", "checks")):
    """The verification rows, in run order."""

    __slots__ = ()

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


def _run_check(name: str, tolerance: float, points, error, detail: str) -> CheckResult:
    """The one loop over a row's points; failures never escape.

    error(*point) gives one point's error, or a tuple of them. The row's
    max error is the largest over every point, and a NaN among them is the
    largest (np.max propagates it, and NaN <= tolerance is false). Any
    numerical error becomes a failed row whose detail reads "error: ...".
    """
    try:
        errs = [error(*point) for point in points]
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
    support = np.flatnonzero(np.bincount(np.concatenate((a.support, b.support))))
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
    truncation_stability compares them with its double. A row is its name,
    tolerance, points, the error at one point and its detail; _run_check
    walks every row's points. spectrum_fn /
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
        rho = build_scenario(probes[alpha, eta], WITHOUT_REFERENCE, cutoff[alpha])
        return scenario_qfi(rho).value, scenario_mixture(rho)

    @functools.cache
    def oracle(alpha: float, eta: float, reference: str, trunc: FockTruncation) -> float:
        if reference == WITHOUT_REFERENCE and trunc == cutoff[alpha]:
            return label_free(alpha, eta)[0]
        return scenario_qfi(build_scenario(probes[alpha, eta], reference, trunc)).value

    @functools.cache
    def two_level(alpha: float, eta: float) -> np.ndarray:
        return two_level_matrix_numeric(alpha, eta)

    def noon(n: int, eta: float, reference: str) -> float:
        probe = ProbeSpec("noon", eta, n=n)
        closed = qfi_noon(n, eta).value
        return _rel(scenario_qfi(build_scenario(probe, reference)).value, closed)

    def shot_noise(n_mean: float, eta: float) -> float:
        return abs(qfi_ecs_ref(alpha_for_mean_photon(n_mean), eta).value / (eta * n_mean) - 1.0)

    def bs(alpha: float, eta: float) -> float:
        psi = ecs_vector(alpha, cutoff[alpha])
        return _max_entry_gap(apply_loss_pure(psi, eta), apply_loss_via_bs(psi.density(), eta))

    def spectrum_eigen(alpha: float, eta: float) -> tuple[float, float]:
        s = spectrum_fn(alpha, eta)
        lo, hi = np.linalg.eigvalsh(two_level(alpha, eta))
        return abs(s.gamma_plus - hi), abs(s.gamma_minus - lo)

    def spectrum_invariant(alpha: float, eta: float) -> tuple[float, float]:
        s = spectrum_fn(alpha, eta)
        return abs(s.gamma_plus + s.gamma_minus - 1.0), abs(s.gamma_plus * s.gamma_minus - s.det_sigma)

    def pipeline(alpha: float, eta: float) -> float:
        direct = phase_average(apply_loss_pure(ecs_vector(alpha, cutoff[alpha]), eta))
        return _max_entry_gap(label_free(alpha, eta)[1], direct)

    def generator(alpha: float, eta: float) -> float:
        mix = label_free(alpha, eta)[1]
        two = qfi_numeric(mix, two_arm_generator(mix.truncation)).value
        one = qfi_numeric(mix, single_arm_generator(mix.truncation)).value
        return _rel(one, two)

    both = (WITH_REFERENCE, WITHOUT_REFERENCE)
    noon_points = [(n, eta, reference) for n in NOON_ORDERS for eta in etas for reference in both]
    bs_points = [(alpha, eta) for alpha in alphas for eta in (0.6, 0.9)]
    # (name, tolerance, points, error of one point, detail)
    rows = (
        ("noref_closed_vs_oracle", ORACLE_POINT_TOL["ecs", WITHOUT_REFERENCE], grid,
         lambda a, e: _rel(oracle(a, e, WITHOUT_REFERENCE, cutoff[a]), qfi_ecs_noref(a, e).value),
         f"{len(grid)} points"),
        ("ref_closed_vs_oracle", ORACLE_POINT_TOL["ecs", WITH_REFERENCE], grid,
         lambda a, e: _rel(oracle(a, e, WITH_REFERENCE, cutoff[a]), qfi_ecs_ref(a, e).value),
         f"{len(grid)} points"),
        ("lossless_equivalence", 1e-9, [(a,) for a in alphas],
         lambda a: _rel(qfi_ecs_ref(a, 1.0).value, qfi_ecs_noref(a, 1.0).value),
         f"{len(alphas)} points at eta=1"),
        ("sector_sum_identity", 1e-10, grid,
         lambda a, e: _rel(qfi_ecs_noref_blocksum(a, e, cutoff[a]).value, qfi_ecs_noref(a, e).value),
         f"{len(grid)} points"),
        ("noon_closed_vs_oracle", ORACLE_POINT_TOL["noon", WITH_REFERENCE], noon_points, noon,
         f"orders {NOON_ORDERS}, both references"),
        ("asymptotic_regime", 5e-3, ASYMPTOTIC_POINTS,
         lambda a, e: _rel(qfi_ecs_ref_asymptotic(a, e).value, qfi_ecs_ref(a, e).value),
         f"{len(ASYMPTOTIC_POINTS)} large-field points"),
        ("shot_noise_approach", 5e-2, [(100.0, 0.9)], shot_noise, "F/(eta N) at N=100, eta=0.9"),
        ("bs_vs_kraus_channel", 1e-9, bs_points, bs, f"{len(bs_points)} points, entrywise"),
        ("spectrum_eigenvalues", 1e-10, lossy, spectrum_eigen, f"{len(lossy)} points vs 2x2 eigensolve"),
        ("spectrum_invariants", 1e-12, lossy, spectrum_invariant, "trace and determinant identities"),
        ("basis_matrix_vs_numeric", 1e-10, lossy,
         lambda a, e: float(np.max(np.abs(basis_matrix_fn(a, e) - two_level(a, e)))),
         f"{len(lossy)} points, entrywise"),
        ("dephased_pipeline_consistency", 1e-12, grid, pipeline,
         f"{len(grid)} points: sector merge equals dephase-then-lose"),
        ("generator_equivalence", 1e-9, grid, generator, f"{len(grid)} points, single-arm vs two-arm"),
        ("truncation_stability", 1e-8, [(a, e, r) for a, e in grid for r in both],
         lambda a, e, r: _rel(oracle(a, e, r, cutoff[a]), oracle(a, e, r, doubled[a])),
         f"{len(grid)} points, cutoff doubled"),
    )
    return VerificationReport(tuple(_run_check(*row) for row in rows))
