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

Every Kraus pass of the oracle goes through _scenario, verify_all's
beam-splitter row included, and every QFI through _qfi_on_support: a
tracer or a test that wraps these two sees every build and every QFI.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import channels
from .exceptions import DegenerateSpectrum, PhaseFisherError, _record
from .fock_core import (
    DensityOperator,
    FockTruncation,
    StateVector,
    _check_shape,
    _spectra,
    _union,
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
    state is the sum over its labels. The spectra are fock_core._spectra's,
    as apply_loss's are (trace-scaled, clipped, and refused below -1e-12);
    every pair with p_i + p_j > 0 counts, and each sum is scaled back.
    """
    _check_shape(generator, (rho.truncation.dim,), "generator")
    return _qfi_on_support(rho, generator[rho.support])


def _qfi_on_support(rho: DensityOperator, g: np.ndarray) -> QFIResult:
    """qfi_numeric from g, the generator's diagonal on rho's support."""
    value = 0.0
    for members, blocks in rho.parts:  # a stack of equal-size components
        w, v, exponent = _spectra(blocks)
        if members.shape[1] == 1:  # one state: no pair
            continue
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


def build_scenario(probe: ProbeSpec, reference: str) -> DensityOperator:
    """The lossy state seen by the estimator, as one operator.

    "with": the probe goes through the loss channel intact.
    "without": the sector label from the input number readout is kept:
    every occupied sector is lost in one Kraus pass, and each lossy
    component belongs to one sector (see the module docstring;
    scenario_mixture gives the label-free state).

    A NOON probe sits on the smallest space that holds it, an ECS probe on
    _ecs_cutoff(alpha).
    """
    if reference not in (WITH_REFERENCE, WITHOUT_REFERENCE):
        raise ValueError(f"reference must be 'with' or 'without', got {reference!r}")
    if probe.family == "noon":
        psi = noon_vector(probe.n, FockTruncation(probe.n))
    else:
        psi = ecs_vector(probe.alpha, _ecs_cutoff(probe.alpha))
    return _scenario(psi, probe.eta, reference)


def _scenario(psi: StateVector, eta: float, reference: str, table_fn=channels._loss_table) -> DensityOperator:
    """build_scenario from the probe's vector psi: one Kraus pass of its amplitudes, with no eigensolve.

    The one seam of every oracle Kraus pass. table_fn is the one-mode
    table, the binomial _loss_table or the beam splitter's _bs_bands.
    """
    # one column labelled 0 with a reference; without, sector n is column n, labelled n, unnormalized
    column = np.zeros_like(psi.support) if reference == WITH_REFERENCE else psi.truncation.totals(psi.support)
    label = np.arange(column.max() + 1)
    return channels._kraus_loss(psi.support, column, psi.amplitudes, label, eta, psi.truncation, table_fn)


def scenario_qfi(rho: DensityOperator) -> QFIResult:
    """QFI of a scenario under the two-arm generator, G = (n1 - n2)/2 read on rho's support only.

    The same value as qfi_numeric(rho, two_arm_generator(rho.truncation)),
    bit for bit, with no array over the whole basis.
    """
    n1, n2 = rho.truncation.occupations(rho.support)
    return _qfi_on_support(rho, (n1 - n2) / 2.0)


def scenario_mixture(rho: DensityOperator) -> DensityOperator:
    """Forget the sector label: the sum of the components, stored again as one operator.

    For the reference-free ECS this equals dephasing followed by loss of
    the full probe, and its QFI drops below the labeled value once loss
    couples neighboring sectors.
    """
    return DensityOperator(rho.support, rho.on(rho.support), rho.truncation)


def two_level_matrix_numeric(alpha: complex, eta: float) -> np.ndarray:
    """Numeric 2x2 matrix of the lossy ECS in its Gram-Schmidt basis, on _ecs_cutoff(alpha).

    The lossy ECS is build_scenario's, with a reference, so ProbeSpec
    checks alpha and eta. Built entirely from vectors and the Kraus
    channel; arbitrates the closed-form spectrum and basis matrix (and in
    particular their two easy-to-mistranscribe coefficients) without
    sharing any algebra. For unit vectors with a real overlap p,
    1 - p = ||delta||^2 / 2 with delta = psi2 - psi1 has no cancellation,
    so the second basis vector
    (psi2 - p psi1)/sqrt(1 - p^2) = (delta + (1 - p) psi1)/sqrt((1 - p)(1 + p))
    keeps full precision as p nears 1.
    """
    return _two_level_matrix(build_scenario(ProbeSpec("ecs", eta, alpha=alpha), WITH_REFERENCE), alpha, eta)


def _two_level_matrix(sigma: DensityOperator, alpha: complex, eta: float) -> np.ndarray:
    """two_level_matrix_numeric from sigma, the lossy ECS at (alpha, eta), on its own cutoff."""
    trunc = sigma.truncation
    # the branches |sqrt(eta) alpha, 0> and |0, sqrt(eta) alpha> on sigma's support, the
    # states the matrix is taken over; a branch entry off it is one whose lossy image underflowed
    c = coherent_vector(math.sqrt(eta) * alpha, trunc)
    n1, n2 = trunc.occupations(sigma.support)
    psi1, psi2 = c[n1] * (n2 == 0), c[n2] * (n1 == 0)
    p = float(np.vdot(psi1, psi2).real)
    delta = psi2 - psi1
    one_minus_p = float(np.vdot(delta, delta).real) / 2.0
    if not one_minus_p > 0.0:
        raise DegenerateSpectrum(
            f"the two lossy branches coincide in double precision (1 - p = {one_minus_p!r})"
        )
    basis = psi1, (delta + one_minus_p * psi1) / math.sqrt(one_minus_p * (1.0 + p))
    # one product with the block per basis vector; entry (i, j) is <b_i| sigma |b_j>
    block = sigma.on(sigma.support)
    images = [block @ b for b in basis]
    return np.array([[float(np.vdot(b, image).real) for image in images] for b in basis])


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
    support = _union(a.support, b.support)
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
    walks every row's points. Rows share what they read through caches: one
    ECS vector per (alpha, cutoff) serves every ECS build and the beam
    splitter's input, and one lossy ECS per (alpha, eta, reference), at the
    base cutoff, serves that reference's oracle value, cached per (alpha,
    eta, reference); the with-reference one also serves the two-level
    matrix, the beam-splitter row and the pipeline row, and the
    reference-free one the label-free mixture. Every Kraus pass, the
    beam-splitter row's included, goes through _scenario. The cached
    operators are released before truncation_stability, the last row,
    which reads the base values as cached floats and builds at the doubled
    cutoff where it reads that value. spectrum_fn /
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
    for alpha, eta in grid:
        ProbeSpec("ecs", eta, alpha=alpha)
    # one cutoff walk per distinct alpha, in grid order
    cutoff = {alpha: _ecs_cutoff(alpha) for alpha in dict.fromkeys(a for a, _ in grid)}
    doubled = {alpha: FockTruncation(2 * trunc.n_max) for alpha, trunc in cutoff.items()}

    alphas = sorted(cutoff)
    etas = sorted({e for _, e in grid})
    lossy = [(a, e) for a, e in grid if e != 0.0]  # the spectrum rows skip eta 0

    # Rows share oracle values through these caches: ECS vectors, floats, 2x2
    # matrices, the label-free mixtures and the lossy ECS at the base cutoff.
    # functools.cache stores no exception, so a value that raises fails again
    # in each row that needs it, and no other.
    ecs = functools.cache(ecs_vector)  # (alpha, cutoff) -> the probe's vector

    @functools.cache
    def lossy_ecs(alpha: float, eta: float, reference: str) -> DensityOperator:
        return _scenario(ecs(alpha, cutoff[alpha]), eta, reference)

    @functools.cache
    def oracle(alpha: float, eta: float, reference: str) -> float:
        return scenario_qfi(lossy_ecs(alpha, eta, reference)).value

    @functools.cache
    def mixture(alpha: float, eta: float) -> DensityOperator:
        return scenario_mixture(lossy_ecs(alpha, eta, WITHOUT_REFERENCE))

    @functools.cache
    def two_level(alpha: float, eta: float) -> np.ndarray:
        return _two_level_matrix(lossy_ecs(alpha, eta, WITH_REFERENCE), alpha, eta)

    def noon(n: int, eta: float, reference: str) -> float:
        probe = ProbeSpec("noon", eta, n=n)
        closed = qfi_noon(n, eta).value
        return _rel(scenario_qfi(build_scenario(probe, reference)).value, closed)

    def shot_noise(n_mean: float, eta: float) -> float:
        return abs(qfi_ecs_ref(alpha_for_mean_photon(n_mean), eta).value / (eta * n_mean) - 1.0)

    def bs(alpha: float, eta: float) -> float:
        # the pure ECS through the beam splitter's bands in place of the binomial table
        via_bs = _scenario(ecs(alpha, cutoff[alpha]), eta, WITH_REFERENCE, channels._bs_bands)
        return _max_entry_gap(lossy_ecs(alpha, eta, WITH_REFERENCE), via_bs)

    def spectrum_eigen(alpha: float, eta: float) -> tuple[float, float]:
        s = spectrum_fn(alpha, eta)
        lo, hi = np.linalg.eigvalsh(two_level(alpha, eta))
        return abs(s.gamma_plus - hi), abs(s.gamma_minus - lo)

    def spectrum_invariant(alpha: float, eta: float) -> tuple[float, float]:
        s = spectrum_fn(alpha, eta)
        return abs(s.gamma_plus + s.gamma_minus - 1.0), abs(s.gamma_plus * s.gamma_minus - s.det_sigma)

    def pipeline(alpha: float, eta: float) -> float:
        return _max_entry_gap(mixture(alpha, eta), channels.phase_average(lossy_ecs(alpha, eta, WITH_REFERENCE)))

    def generator(alpha: float, eta: float) -> float:
        # G = n1 against G = (n1 - n2)/2, each read on the mixture's support
        mix = mixture(alpha, eta)
        one = _qfi_on_support(mix, mix.truncation.occupations(mix.support)[0].astype(float))
        return _rel(one.value, scenario_qfi(mix).value)

    both = (WITH_REFERENCE, WITHOUT_REFERENCE)
    noon_points = [(n, eta, reference) for n in NOON_ORDERS for eta in etas for reference in both]
    bs_points = [(alpha, eta) for alpha in alphas for eta in (0.6, 0.9)]
    # (name, tolerance, points, error of one point, detail)
    rows = (
        ("noref_closed_vs_oracle", ORACLE_POINT_TOL["ecs", WITHOUT_REFERENCE], grid,
         lambda a, e: _rel(oracle(a, e, WITHOUT_REFERENCE), qfi_ecs_noref(a, e).value),
         f"{len(grid)} points"),
        ("ref_closed_vs_oracle", ORACLE_POINT_TOL["ecs", WITH_REFERENCE], grid,
         lambda a, e: _rel(oracle(a, e, WITH_REFERENCE), qfi_ecs_ref(a, e).value),
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
         lambda a, e, r: _rel(oracle(a, e, r), scenario_qfi(_scenario(ecs(a, doubled[a]), e, r)).value),
         f"{len(grid)} points, cutoff doubled"),
    )
    checks = [_run_check(*row) for row in rows[:-1]]
    # truncation_stability reads only the cached floats at the base cutoff, so the
    # operators go before its doubled-cutoff builds
    for cache in (lossy_ecs, mixture, two_level):
        cache.cache_clear()
    checks.append(_run_check(*rows[-1]))
    return VerificationReport(tuple(checks))
