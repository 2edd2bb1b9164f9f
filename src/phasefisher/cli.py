"""Command-line front end.

Four subcommands: `point` evaluates one probe configuration (optionally
against the brute-force oracle), `sweep` writes a sensitivity-vs-photon-
number CSV suitable for log-log plotting, `crossings` locates where the
NOON and reference-beam ECS information curves intersect, and `verify`
runs the full closed-form-vs-oracle suite. The oracle builds a NOON probe
on the smallest space that holds it and an ECS probe on a cutoff that is a
rule of alpha alone (qfi_oracle._ecs_cutoff); no flag sets either.

`sweep` and `crossings` read one array route from N to F,
qfi_analytic._curves: each sweep block, the crossing grid and every
bisection midpoint. A failing sweep row raises its own typed error, the one
the scalar functions give at that N.

All output is deterministic for fixed flags on a fixed numpy build:
floats are rendered with repr (shortest round-trip digits), rows in input
order, no timestamps. Closed-form output (`point` without `--oracle`,
`sweep`, `crossings`) uses no linear algebra. Oracle values and `verify`
errors come from LAPACK eigensolves and BLAS products. CI pins the default
`verify` report and its `--output` CSV, which carries every max error in
full repr, at one and two BLAS threads, and a subprocess test pins the
beam-splitter route's output bytes at alpha 1.5 and 2; a larger eigensolve
may thread (at alpha 12 that route's bytes move), and another BLAS library
may move last digits.
"""

from __future__ import annotations

import math
import os
import sys
from argparse import ArgumentParser
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    InvalidEta,
    NoConvergence,
    NoCrossingFound,
    NonpositiveFisher,
    PhaseFisherError,
)
from .qfi_analytic import QFIResult, _curves, qfi_ecs_noref, qfi_ecs_ref, qfi_noon, sensitivity
from .qfi_oracle import (
    ORACLE_POINT_TOL,
    WITH_REFERENCE,
    WITHOUT_REFERENCE,
    build_scenario,
    scenario_qfi,
    verify_all,
)
from .states import ProbeSpec, _libm, alpha_for_mean_photon

CSV_HEADER = (
    "n_mean,eta,alpha,f_ecs_noref,f_ecs_ref,f_ecs_ref_asym,f_noon,"
    "dphi_ecs_noref,dphi_ecs_ref,dphi_noon,dphi_snl,is_integer_n"
)

INTEGER_N_ATOL = 1e-9

DEFAULT_SWEEP_POINTS = 200
DEFAULT_SWEEP_RANGE = (0.1, 200.0)

# sweep rows go through numpy this many at a time; whole columns raise a
# 40,000-row sweep's peak RSS from 48 to 61 MB and save no time
SWEEP_BLOCK_ROWS = 1024


@dataclass(frozen=True)
class SweepConfig:
    """Axes and output target of one sensitivity sweep."""

    eta: float
    n_min: float = DEFAULT_SWEEP_RANGE[0]
    n_max: float = DEFAULT_SWEEP_RANGE[1]
    points: int = DEFAULT_SWEEP_POINTS
    spacing: str = "log"
    output_path: str = "sweep.csv"

    def __post_init__(self) -> None:
        if not 0.0 < self.eta <= 1.0:
            raise InvalidEta(f"sweep needs 0 < eta <= 1, got {self.eta}")
        for name, bound in (("n_min", self.n_min), ("n_max", self.n_max)):
            if not math.isfinite(bound):
                raise ValueError(f"{name} must be finite, got {bound}")
        if self.n_min <= 0.0:
            raise ValueError(f"n_min must be positive, got {self.n_min}")
        if self.n_max <= self.n_min:
            raise ValueError(f"need n_max > n_min, got [{self.n_min}, {self.n_max}]")
        if self.points < 2:
            raise ValueError(f"need at least 2 points, got {self.points}")
        if self.spacing not in ("log", "linear"):
            raise ValueError(f"spacing must be 'log' or 'linear', got {self.spacing!r}")

    def grid(self) -> np.ndarray:
        if self.spacing == "log":
            # near the largest double, geomspace overflows in the power it then overwrites
            with np.errstate(over="ignore"):
                return np.geomspace(self.n_min, self.n_max, self.points)
        return np.linspace(self.n_min, self.n_max, self.points)


def _fmt(x: float) -> str:
    # repr is the shortest digit string that round-trips the exact double
    return repr(float(x))


def cmd_point(
    family: str,
    eta: float,
    alpha: float | None = None,
    n: int | None = None,
    reference: str | None = None,
    use_oracle: bool = False,
) -> int:
    if family == "ecs":
        if n is not None:
            raise ValueError("--n applies only to the noon family")
        if alpha is None:
            raise ValueError("--alpha is required for the ecs family")
        if reference not in (WITH_REFERENCE, WITHOUT_REFERENCE):
            raise ValueError("--reference with|without is required for the ecs family")
        probe = ProbeSpec("ecs", eta, alpha=alpha)
        result = qfi_ecs_ref(alpha, eta) if reference == WITH_REFERENCE else qfi_ecs_noref(alpha, eta)
        label = f"family=ecs alpha={alpha:g} eta={eta:g} reference={reference}"
    elif family == "noon":
        if alpha is not None:
            raise ValueError("--alpha applies only to the ecs family")
        if n is None:
            raise ValueError("--n is required for the noon family")
        reference = reference or WITH_REFERENCE
        probe = ProbeSpec("noon", eta, n=n)
        result = qfi_noon(n, eta)
        label = f"family=noon n={n} eta={eta:g}"
    else:
        raise ValueError(f"unknown family {family!r}")

    print(label)
    print(f"F    = {_fmt(result.value)}  (closed_form, two_arm generator)")
    dphi = math.inf if result.value == 0.0 else sensitivity(result.value)
    print(f"dphi = {_fmt(dphi)}")

    if not use_oracle:
        return 0
    numeric = scenario_qfi(build_scenario(probe, reference))
    scale = abs(result.value) if result.value != 0.0 else 1.0
    deviation = abs(numeric.value - result.value) / scale
    tolerance = ORACLE_POINT_TOL[(family, reference)]
    print(f"oracle = {_fmt(numeric.value)}  relative deviation {deviation:.3e} (tolerance {tolerance:g})")
    if deviation > tolerance:
        print(f"oracle deviation {deviation:.3e} exceeds {tolerance:g}", file=sys.stderr)
        return 3
    return 0


def sweep_rows(cfg: SweepConfig) -> list[str]:
    grid = cfg.grid()
    rows = [CSV_HEADER]
    for start in range(0, grid.size, SWEEP_BLOCK_ROWS):
        rows += _block_rows(grid[start : start + SWEEP_BLOCK_ROWS], cfg.eta)
    return rows


def _block_rows(n_mean: np.ndarray, eta: float) -> list[str]:
    """CSV rows of one block of the grid, bit for bit those of the scalar functions.

    The first failing row raises the error the scalar functions would: a
    QFIResult check on F_noref, F_ref and F_ref_asym in that order, then
    NonpositiveFisher where an F or the shot-noise F underflows to 0.
    """
    values = _curves(n_mean, eta)
    _, f_noref, f_ref, f_asym, f_noon = values
    failing = ~((values[1:4] >= 0.0) & (values[1:4] < math.inf)).all(axis=0)
    failing |= (f_noref == 0.0) | (f_ref == 0.0) | (f_noon == 0.0) | (eta * n_mean == 0.0)
    if failing.any():
        row = int(failing.argmax())
        for f in (f_noref, f_ref, f_asym):
            QFIResult(f[row].item())
        nm = n_mean[row].item()
        # F grows with N below 1 and decays as eta^N above it; eta N is the shot-noise F
        bound = "raise --n-min" if nm < 1.0 else "lower --n-max"
        raise NonpositiveFisher(
            f"Fisher information underflows to 0 at N = {_fmt(nm)} (eta = {eta:g}), "
            f"so its sensitivity is undefined; {bound}"
        )
    dphi = [_libm(pow, f, -0.5) for f in (f_noref, f_ref, f_noon)]
    columns = [n_mean, np.full(n_mean.size, eta), *values, *dphi, 1.0 / np.sqrt(eta * n_mean)]
    # no NOON state has n = 0, so an N that rounds to 0 is not an integer N
    nearest = np.rint(n_mean)
    integer_n = ((nearest >= 1.0) & (np.abs(n_mean - nearest) < INTEGER_N_ATOL)).tolist()
    return [
        ",".join(map(repr, cells)) + (",true" if flag else ",false")
        for cells, flag in zip(zip(*(c.tolist() for c in columns)), integer_n)
    ]


def cmd_sweep(cfg: SweepConfig) -> int:
    # all rows are computed before the file is opened, so a numerical
    # failure can never leave a partial CSV behind
    text = "\n".join(sweep_rows(cfg)) + "\n"
    try:
        with open(cfg.output_path, "w", encoding="ascii", newline="") as fh:
            fh.write(text)
    except OSError:
        if os.path.exists(cfg.output_path):
            os.unlink(cfg.output_path)
        raise
    print(f"wrote {cfg.points} rows to {cfg.output_path}")
    return 0


def qfi_ecs_ref_at_mean_photons(n_mean: float, eta: float) -> float:
    """Reference-beam ECS QFI with alpha chosen to hit the target mean photon number."""
    return qfi_ecs_ref(alpha_for_mean_photon(n_mean), eta).value


def _gap(n_mean: np.ndarray, eta: float) -> list[float]:
    """F_noon - F_ref along n_mean, finite over the crossing grid's range for 0 < eta < 1."""
    _, _, f_ref, _, f_noon = _curves(n_mean, eta)
    return (f_noon - f_ref).tolist()


def find_crossings(eta: float, tolerance: float = 1e-6) -> list[float]:
    """Mean photon numbers where the NOON and ECS information curves cross.

    Sign changes of F_noon(N) - F_ecs(N) are bracketed on the default
    sweep's log grid and each is bisected until the curve gap at the
    midpoint is within tolerance; grid and midpoints read the sweep's array
    route. Raises NoCrossingFound when the grid shows no sign change and
    NoConvergence when 200 halvings of a bracket leave the gap above tolerance.
    """
    if not 0.0 < eta < 1.0:
        raise InvalidEta(f"crossings are defined for 0 < eta < 1, got {eta}")
    if not 0.0 < tolerance < math.inf:
        raise ValueError(f"crossing tolerance must be finite and positive, got {tolerance}")

    n_min, n_max = DEFAULT_SWEEP_RANGE
    ns = np.geomspace(n_min, n_max, DEFAULT_SWEEP_POINTS)
    gaps = _gap(ns, eta)
    roots: list[float] = []
    for i in range(ns.size - 1):
        if gaps[i] == 0.0:
            roots.append(float(ns[i]))
            continue
        # compare signs, not a product: two tiny gaps multiply to -0.0
        if gaps[i + 1] == 0.0 or (gaps[i] > 0.0) == (gaps[i + 1] > 0.0):
            continue
        lo, hi, glo = float(ns[i]), float(ns[i + 1]), gaps[i]
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            gm = _gap(np.array([mid]), eta)[0]
            if abs(gm) <= tolerance:
                roots.append(mid)
                break
            if (gm > 0.0) == (glo > 0.0):
                lo, glo = mid, gm
            else:
                hi = mid
        else:
            raise NoConvergence(f"bisection stalled on bracket [{lo}, {hi}] at eta={eta}")
    if gaps[-1] == 0.0:
        roots.append(float(ns[-1]))
    if not roots:
        raise NoCrossingFound(f"no crossing on N in [{n_min}, {n_max}] at eta={eta}")
    return roots


def cmd_crossings(eta: float, tolerance: float = 1e-6) -> int:
    try:
        roots = find_crossings(eta, tolerance)
    except NoCrossingFound as exc:
        print(str(exc))
        return 0
    if len(roots) == 2:
        # bisection runs over the grid brackets in order, so n1 < n2
        n1, n2 = roots
        print(f"eta = {eta:g}: two crossings")
        print(f"N1 = {_fmt(n1)}")
        print(f"N2 = {_fmt(n2)}")
        lead = "noon" if _gap(np.array([math.sqrt(n1 * n2)]), eta)[0] > 0.0 else "ecs"
        print(f"between them the {lead} probe carries more information")
    else:
        print(f"eta = {eta:g}: found {len(roots)} crossing(s), expected 2")
        for k, root in enumerate(roots, start=1):
            print(f"N{k} = {_fmt(root)}")
    return 0


def cmd_verify(
    grid_mode: str = "full",
    alpha: float | None = None,
    eta: float | None = None,
    output: str | None = None,
) -> int:
    if grid_mode == "single":
        grid = [(0.5 if alpha is None else alpha, 1.0 if eta is None else eta)]
    elif alpha is not None or eta is not None:
        raise ValueError("--alpha and --eta apply only to --grid single")
    else:
        grid = None
    report = verify_all(grid)
    print(report.render())
    if output is not None:
        with open(output, "w", encoding="ascii", newline="") as fh:
            fh.write(report.to_csv())
    return 0 if report.passed else 1


def build_parser() -> ArgumentParser:
    parser = ArgumentParser(
        prog="phasefisher",
        description="QFI and phase sensitivity of lossy ECS/NOON interferometry",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    point = sub.add_parser("point", help="evaluate one probe configuration")
    point.add_argument("--family", choices=("ecs", "noon"), required=True)
    point.add_argument("--alpha", type=float, help="coherent amplitude (ecs)")
    point.add_argument("--n", type=int, help="photon number (noon)")
    point.add_argument("--eta", type=float, required=True)
    point.add_argument("--reference", choices=(WITH_REFERENCE, WITHOUT_REFERENCE))
    point.add_argument("--oracle", action="store_true", help="cross-check against the numeric oracle")

    sweep = sub.add_parser("sweep", help="write a sensitivity-vs-N CSV")
    sweep.add_argument("--eta", type=float, required=True)
    sweep.add_argument("--output", required=True)
    sweep.add_argument("--n-min", type=float, default=DEFAULT_SWEEP_RANGE[0], dest="n_min")
    sweep.add_argument("--n-max", type=float, default=DEFAULT_SWEEP_RANGE[1], dest="n_max")
    sweep.add_argument("--points", type=int, default=DEFAULT_SWEEP_POINTS)
    sweep.add_argument("--spacing", choices=("log", "linear"), default="log")

    crossings = sub.add_parser("crossings", help="find where NOON and ECS curves cross")
    crossings.add_argument("--eta", type=float, required=True)
    crossings.add_argument("--tol", type=float, default=1e-6)

    verify = sub.add_parser("verify", help="run the closed-form-vs-oracle suite")
    verify.add_argument("--grid", choices=("full", "single"), default="full")
    verify.add_argument("--alpha", type=float, help="with --grid single (default 0.5)")
    verify.add_argument("--eta", type=float, help="with --grid single (default 1.0)")
    verify.add_argument("--output", default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        if args.command == "point":
            return cmd_point(
                family=args.family,
                eta=args.eta,
                alpha=args.alpha,
                n=args.n,
                reference=args.reference,
                use_oracle=args.oracle,
            )
        if args.command == "sweep":
            cfg = SweepConfig(
                eta=args.eta,
                n_min=args.n_min,
                n_max=args.n_max,
                points=args.points,
                spacing=args.spacing,
                output_path=args.output,
            )
            return cmd_sweep(cfg)
        if args.command == "crossings":
            return cmd_crossings(args.eta, args.tol)
        return cmd_verify(
            grid_mode=args.grid,
            alpha=args.alpha,
            eta=args.eta,
            output=args.output,
        )
    except (PhaseFisherError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
