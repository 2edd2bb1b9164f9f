"""Command-line front end.

Four subcommands: `point` evaluates one probe configuration (optionally
against the brute-force oracle), `sweep` writes a sensitivity-vs-photon-
number CSV suitable for log-log plotting, `crossings` locates where the
NOON and reference-beam ECS information curves intersect, and `verify`
runs the full closed-form-vs-oracle suite. The oracle builds a NOON probe
on the smallest space that holds it and an ECS probe on a cutoff that is a
rule of alpha alone (qfi_oracle._ecs_cutoff); no flag sets either. Each
subparser binds its handler, which reads the parsed flags; main parses,
runs it and maps its errors to exit codes.

`sweep` and `crossings` read one array route from N to F,
qfi_analytic._curves: each sweep block, the crossing grid and every
bisection midpoint. A failing sweep row raises its own typed error, the one
the scalar functions give at that N.

`point` without `--oracle` runs on the standard library alone: numpy, the
Fock-space code and the oracle are imported where a command first builds an
array or an operator, in `point --oracle`, `sweep`, `crossings` and `verify`.

All output is deterministic for fixed flags on a fixed numpy build:
floats are rendered with repr (shortest round-trip digits), rows in input
order, no timestamps. Closed-form output (`point` without `--oracle`,
`sweep`, `crossings`) uses no linear algebra. Oracle values and `verify`
errors come from LAPACK eigensolves and BLAS products, real ones where
every amplitude is real. CI pins the default `verify` report and its
`--output` CSV, which carries every max error in full repr, at one and two
BLAS threads, and a subprocess test pins the beam-splitter route's output
bytes at alpha 1.5 and 2. A larger product or eigensolve may thread, and
its last digits then move with the thread count: at alpha 12 the
beam-splitter route's bytes and two rows of `verify --grid single`'s CSV
(the with-reference oracle's and truncation_stability), and at alpha 20 the
with-reference `point --oracle` value (359.9999999864846 at one thread,
359.9999999864044 at two). Another BLAS library may move last digits too.
"""

from __future__ import annotations

import math
import os
import stat
import sys
from argparse import ArgumentParser, Namespace

from .exceptions import (
    InvalidEta,
    NoConvergence,
    NoCrossingFound,
    NonpositiveFisher,
    PhaseFisherError,
    _record,
)
from .qfi_analytic import QFIResult, _curves, qfi_ecs_noref, qfi_ecs_ref, qfi_noon, sensitivity
from .states import WITH_REFERENCE, WITHOUT_REFERENCE, ProbeSpec, _libm, alpha_for_mean_photon

# the typing module's constant, without importing typing on the closed-form path
TYPE_CHECKING = False
if TYPE_CHECKING:
    import numpy as np

CSV_HEADER = (
    "n_mean,eta,alpha,f_ecs_noref,f_ecs_ref,f_ecs_ref_asym,f_noon,"
    "dphi_ecs_noref,dphi_ecs_ref,dphi_noon,dphi_snl,is_integer_n"
)

INTEGER_N_ATOL = 1e-9

DEFAULT_SWEEP_POINTS = 200
# a sweep holds every row in memory, about 450 B each (475 MB peak RSS at this many)
MAX_SWEEP_POINTS = 1_000_000
DEFAULT_SWEEP_RANGE = (0.1, 200.0)

# `crossings` stops bisecting once |F_noon - F_ref| at the midpoint is at most this
DEFAULT_CROSSING_TOL = 1e-6

# sweep rows go through numpy this many at a time; whole columns raise a
# 40,000-row sweep's peak RSS from 48 to 61 MB and save no time
SWEEP_BLOCK_ROWS = 1024


class SweepConfig(_record("SweepConfig", "eta n_min n_max points spacing output_path")):
    """Axes and output target of one sensitivity sweep."""

    __slots__ = ()

    def __new__(
        cls,
        eta: float,
        n_min: float = DEFAULT_SWEEP_RANGE[0],
        n_max: float = DEFAULT_SWEEP_RANGE[1],
        points: int = DEFAULT_SWEEP_POINTS,
        spacing: str = "log",
        output_path: str = "sweep.csv",
    ) -> SweepConfig:
        if not 0.0 < eta <= 1.0:
            raise InvalidEta(f"sweep needs 0 < eta <= 1, got {eta}")
        for name, bound in (("n_min", n_min), ("n_max", n_max)):
            if not math.isfinite(bound):
                raise ValueError(f"{name} must be finite, got {bound}")
        if n_min <= 0.0:
            raise ValueError(f"n_min must be positive, got {n_min}")
        if n_max <= n_min:
            raise ValueError(f"need n_max > n_min, got [{n_min}, {n_max}]")
        if points < 2:
            raise ValueError(f"need at least 2 points, got {points}")
        if points > MAX_SWEEP_POINTS:
            raise ValueError(f"at most {MAX_SWEEP_POINTS} points, got {points}")
        if spacing not in ("log", "linear"):
            raise ValueError(f"spacing must be 'log' or 'linear', got {spacing!r}")
        return super().__new__(cls, eta, n_min, n_max, points, spacing, output_path)

    def grid(self) -> np.ndarray:
        import numpy as np

        # near the largest double, both spacings overflow in the last point, which they then
        # overwrite with n_max: geomspace in its power, linspace in its product
        with np.errstate(over="ignore"):
            if self.spacing == "log":
                return np.geomspace(self.n_min, self.n_max, self.points)
            return np.linspace(self.n_min, self.n_max, self.points)


def _fmt(x: float) -> str:
    # repr is the shortest digit string that round-trips the exact double
    return repr(float(x))


def cmd_point(args: Namespace) -> int:
    reference = args.reference
    if args.family == "ecs":
        if args.n is not None:
            raise ValueError("--n applies only to the noon family")
        if args.alpha is None:
            raise ValueError("--alpha is required for the ecs family")
        if reference is None:
            raise ValueError("--reference with|without is required for the ecs family")
        probe = ProbeSpec("ecs", args.eta, alpha=args.alpha)
        result = (qfi_ecs_ref if reference == WITH_REFERENCE else qfi_ecs_noref)(args.alpha, args.eta)
        label = f"family=ecs alpha={args.alpha:g} eta={args.eta:g} reference={reference}"
    else:
        if args.alpha is not None:
            raise ValueError("--alpha applies only to the ecs family")
        if args.n is None:
            raise ValueError("--n is required for the noon family")
        reference = reference or WITH_REFERENCE
        probe = ProbeSpec("noon", args.eta, n=args.n)
        result = qfi_noon(args.n, args.eta)
        label = f"family=noon n={args.n} eta={args.eta:g}"

    print(label)
    print(f"F    = {_fmt(result.value)}  (closed_form, two_arm generator)")
    dphi = math.inf if result.value == 0.0 else sensitivity(result.value)
    print(f"dphi = {_fmt(dphi)}")

    if not args.oracle:
        return 0
    from .qfi_oracle import ORACLE_POINT_TOL, _rel, build_scenario, scenario_qfi

    numeric = scenario_qfi(build_scenario(probe, reference))
    deviation = _rel(numeric.value, result.value)
    tolerance = ORACLE_POINT_TOL[(args.family, reference)]
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
    import numpy as np

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


def cmd_sweep(args: Namespace) -> int:
    cfg = SweepConfig(args.eta, args.n_min, args.n_max, args.points, args.spacing, args.output)
    # all rows are computed before the file is opened, so a numerical
    # failure can never leave a partial CSV behind
    _write_output(cfg.output_path, "\n".join(sweep_rows(cfg)) + "\n")
    print(f"wrote {cfg.points} rows to {cfg.output_path}")
    return 0


def _write_output(path: str, text: str) -> None:
    """Write text to path. A failed open deletes nothing, and a failed write removes only a regular file."""
    fh = open(path, "w", encoding="ascii", newline="")  # a failed open deletes nothing
    try:
        with fh:
            fh.write(text)
    except OSError:
        # a partial file goes, but never a symlink, pipe or device the path names
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.unlink(path)
        raise


def qfi_ecs_ref_at_mean_photons(n_mean: float, eta: float) -> float:
    """Reference-beam ECS QFI with alpha chosen to hit the target mean photon number."""
    return qfi_ecs_ref(alpha_for_mean_photon(n_mean), eta).value


def _gap(n_mean: np.ndarray, eta: float) -> list[float]:
    """F_noon - F_ref along n_mean, finite over the crossing grid's range for 0 < eta < 1."""
    _, _, f_ref, _, f_noon = _curves(n_mean, eta)
    return (f_noon - f_ref).tolist()


def find_crossings(eta: float, tolerance: float = DEFAULT_CROSSING_TOL) -> list[float]:
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
    import numpy as np

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


def cmd_crossings(args: Namespace) -> int:
    import numpy as np

    eta = args.eta
    try:
        roots = find_crossings(eta, args.tol)
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


def cmd_verify(args: Namespace) -> int:
    from .qfi_oracle import verify_all

    grid = None
    if args.grid == "single":
        grid = [(0.5 if args.alpha is None else args.alpha, 1.0 if args.eta is None else args.eta)]
    elif args.alpha is not None or args.eta is not None:
        raise ValueError("--alpha and --eta apply only to --grid single")
    report = verify_all(grid)
    print(report.render())
    if args.output is not None:
        _write_output(args.output, report.to_csv())
    return 0 if report.passed else 1


def build_parser() -> ArgumentParser:
    parser = ArgumentParser(
        prog="phasefisher",
        description="QFI and phase sensitivity of lossy ECS/NOON interferometry",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    point = sub.add_parser("point", help="evaluate one probe configuration")
    point.set_defaults(run=cmd_point)
    point.add_argument("--family", choices=("ecs", "noon"), required=True)
    point.add_argument("--alpha", type=float, help="coherent amplitude (ecs)")
    point.add_argument("--n", type=int, help="photon number (noon)")
    point.add_argument("--eta", type=float, required=True)
    point.add_argument("--reference", choices=(WITH_REFERENCE, WITHOUT_REFERENCE))
    point.add_argument("--oracle", action="store_true", help="cross-check against the numeric oracle")

    sweep = sub.add_parser("sweep", help="write a sensitivity-vs-N CSV")
    sweep.set_defaults(run=cmd_sweep)
    sweep.add_argument("--eta", type=float, required=True)
    sweep.add_argument("--output", required=True)
    sweep.add_argument("--n-min", type=float, default=DEFAULT_SWEEP_RANGE[0], dest="n_min")
    sweep.add_argument("--n-max", type=float, default=DEFAULT_SWEEP_RANGE[1], dest="n_max")
    sweep.add_argument("--points", type=int, default=DEFAULT_SWEEP_POINTS)
    sweep.add_argument("--spacing", choices=("log", "linear"), default="log")

    crossings = sub.add_parser("crossings", help="find where NOON and ECS curves cross")
    crossings.set_defaults(run=cmd_crossings)
    crossings.add_argument("--eta", type=float, required=True)
    crossings.add_argument("--tol", type=float, default=DEFAULT_CROSSING_TOL)

    verify = sub.add_parser("verify", help="run the closed-form-vs-oracle suite")
    verify.set_defaults(run=cmd_verify)
    verify.add_argument("--grid", choices=("full", "single"), default="full")
    verify.add_argument("--alpha", type=float, help="with --grid single (default 0.5)")
    verify.add_argument("--eta", type=float, help="with --grid single (default 1.0)")
    verify.add_argument("--output")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        code = args.run(args)
        sys.stdout.flush()  # a reader that went away shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # not a domain error: exit as a shell reports a reader's early close (128 + SIGPIPE),
        # with stdout on devnull so that the interpreter's last flush finds no pipe either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (PhaseFisherError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
