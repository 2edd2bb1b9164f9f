"""Independent 50-digit reference values and checks of phasefisher outputs.

Every closed form is re-derived here in mpmath from its formula, not from
the package, so a transcription error or a loss of precision in the
package shows up as a failed check. The reference-beam value uses the
reduced form

    F = (x + x^2)/(1 + e^{-|alpha|^2}) - x^2 (1 - e^{-2 (1 - eta) |alpha|^2})/(1 + e^{-|alpha|^2})^2,

x = eta |alpha|^2, which is algebraically equal to the package's spectral
route. Each check returns None when the output is right and a one-line
reason when it is not.
"""

from __future__ import annotations

import math

import mpmath as mp

mp.mp.dps = 50

# relative tolerance of a double-precision closed form against the 50-digit value
CLOSED_FORM_RTOL = 1e-10
# the alpha solver stops at 1e-10 absolute on the mean photon number
ALPHA_SOLVE_ATOL = 1e-10
# `point --oracle` tolerances of the CLI, per family and reference
ORACLE_POINT_TOL = {
    ("ecs", "without"): 1e-6,
    ("ecs", "with"): 1e-8,
    ("noon", "with"): 1e-9,
    ("noon", "without"): 1e-9,
}
CSV_HEADER = (
    "n_mean,eta,alpha,f_ecs_noref,f_ecs_ref,f_ecs_ref_asym,f_noon,"
    "dphi_ecs_noref,dphi_ecs_ref,dphi_noon,dphi_snl,is_integer_n"
)
SWEEP_RANGE = (0.1, 200.0)
CROSSING_GRID_POINTS = 200


def _nsq(a2):
    return 1 / (2 * (1 + mp.exp(-a2)))


def f_noref(alpha: float, eta: float):
    a2, eta = mp.mpf(alpha) ** 2, mp.mpf(eta)
    return 2 * _nsq(a2) * mp.exp(-a2 * (1 - eta)) * (a2 * a2 * eta * eta + a2 * eta)


def f_ref(alpha: float, eta: float):
    a2, eta = mp.mpf(alpha) ** 2, mp.mpf(eta)
    x = eta * a2
    den = 1 + mp.exp(-a2)
    return (x + x * x) / den - x * x * (1 - mp.exp(-2 * (1 - eta) * a2)) / den**2


def f_ref_asym(alpha: float, eta: float):
    a2, eta = mp.mpf(alpha) ** 2, mp.mpf(eta)
    return 2 * _nsq(a2) * (mp.exp(-2 * a2 * (1 - eta)) * a2 * a2 * eta * eta + a2 * eta)


def f_noon(n: float, eta: float):
    return mp.mpf(n) ** 2 * mp.mpf(eta) ** mp.mpf(n)


def mean_photons(alpha: float):
    a2 = mp.mpf(alpha) ** 2
    return 2 * _nsq(a2) * a2


def alpha_for_mean(n: float):
    n = mp.mpf(n)
    return mp.findroot(lambda a: mean_photons(a) - n, mp.sqrt(n) + mp.mpf("0.5"))


def closed_form(family: str, reference: str, alpha: float, n: int, eta: float):
    if family == "noon":
        return f_noon(n, eta)
    return f_ref(alpha, eta) if reference == "with" else f_noref(alpha, eta)


def _rel(value: float, ref) -> float:
    ref = mp.mpf(ref)
    if ref == 0:
        return abs(value)
    return float(abs(mp.mpf(value) - ref) / abs(ref))


def _field(lines: list[str], prefix: str) -> float | None:
    for line in lines:
        if line.startswith(prefix):
            return float(line[len(prefix):].split()[0])
    return None


def check_point(op: dict, stdout: str) -> str | None:
    """`point` output: F and dphi against the reference, plus the oracle line."""
    lines = stdout.splitlines()
    value = _field(lines, "F    = ")
    dphi = _field(lines, "dphi = ")
    if value is None or dphi is None:
        return "point output lacks the F or dphi line"
    ref = closed_form(op["family"], op["reference"], op.get("alpha"), op.get("n"), op["eta"])
    err = _rel(value, ref)
    if err > CLOSED_FORM_RTOL:
        return f"F = {value!r} off the reference by {err:.2e}"
    err = _rel(dphi, 1 / mp.sqrt(ref))
    if err > CLOSED_FORM_RTOL:
        return f"dphi = {dphi!r} off the reference by {err:.2e}"
    if op.get("oracle"):
        return check_oracle_value(op, _field(lines, "oracle = "))
    return None


def check_oracle_value(op: dict, value: float | None) -> str | None:
    """An oracle QFI against the 50-digit closed form at the CLI's point tolerance."""
    if value is None or not math.isfinite(value):
        return f"oracle gave no finite value ({value!r})"
    ref = closed_form(op["family"], op["reference"], op.get("alpha"), op.get("n"), op["eta"])
    tol = ORACLE_POINT_TOL[(op["family"], op["reference"])]
    err = _rel(value, ref)
    if err > tol:
        return f"oracle {value!r} off the closed form by {err:.2e} > {tol:g}"
    return None


def sweep_grid(points: int) -> list[float]:
    lo, hi = SWEEP_RANGE
    return [lo * (hi / lo) ** (i / (points - 1)) for i in range(points)]


def check_sweep_rows(text: str, eta: float, points: int, sample: list[int]) -> str | None:
    """Header, row count and grid of a sweep CSV; every value of the sampled rows."""
    rows = text.split("\n")
    if rows[-1] != "" or rows[0] != CSV_HEADER:
        return "sweep CSV header or trailing newline wrong"
    rows = rows[1:-1]
    if len(rows) != points:
        return f"sweep wrote {len(rows)} rows, expected {points}"
    grid = sweep_grid(points)
    for i in sample:
        cells = rows[i].split(",")
        if len(cells) != 12:
            return f"row {i} has {len(cells)} cells"
        nm, eta_out, alpha, fnr, fr, fa, fn, dnr, dr, dn, dsnl = (float(c) for c in cells[:11])
        if abs(nm - grid[i]) > 1e-12 * grid[i] or eta_out != eta:
            return f"row {i}: n_mean {nm!r} or eta {eta_out!r} off the grid"
        if abs(mean_photons(alpha) - mp.mpf(nm)) > ALPHA_SOLVE_ATOL * (1 + nm):
            return f"row {i}: alpha {alpha!r} misses mean photon number {nm!r}"
        refs = (f_noref(alpha, eta), f_ref(alpha, eta), f_ref_asym(alpha, eta), f_noon(nm, eta))
        for name, got, ref in zip(("noref", "ref", "asym", "noon"), (fnr, fr, fa, fn), refs):
            if _rel(got, ref) > CLOSED_FORM_RTOL:
                return f"row {i}: f_{name} {got!r} off the reference by {_rel(got, ref):.2e}"
        for got, ref in zip((dnr, dr, dn), (refs[0], refs[1], refs[3])):
            if _rel(got, 1 / mp.sqrt(ref)) > CLOSED_FORM_RTOL:
                return f"row {i}: dphi {got!r} off the reference"
        if _rel(dsnl, 1 / mp.sqrt(mp.mpf(eta) * mp.mpf(nm))) > CLOSED_FORM_RTOL:
            return f"row {i}: dphi_snl {dsnl!r} off the reference"
        integer = "true" if abs(nm - round(nm)) < 1e-9 else "false"
        if cells[11] != integer:
            return f"row {i}: is_integer_n {cells[11]!r}"
    return None


def _gap(n: float, eta: float):
    return f_noon(n, eta) - f_ref(alpha_for_mean(n), eta)


def check_crossings(stdout: str, eta: float, tol: float = 1e-6) -> str | None:
    """Crossings against the sign changes of the 50-digit curve gap on the CLI grid."""
    grid = sweep_grid(CROSSING_GRID_POINTS)
    gaps = [_gap(x, eta) for x in grid]
    brackets = [
        (grid[i], grid[i + 1]) for i in range(len(grid) - 1) if gaps[i] * gaps[i + 1] < 0
    ]
    lines = stdout.splitlines()
    if not brackets:
        expected = f"no crossing on N in [{SWEEP_RANGE[0]}, {SWEEP_RANGE[1]}] at eta={eta}"
        return None if lines == [expected] else f"expected no crossing, got {lines[:1]}"
    roots = [float(line.split("=")[1]) for line in lines if line.startswith("N")]
    if len(roots) != len(brackets):
        return f"{len(roots)} crossings reported, the reference has {len(brackets)}"
    for root, (lo, hi) in zip(roots, brackets):
        if not lo <= root <= hi or abs(_gap(root, eta)) > tol * (1 + 1e-6):
            return f"crossing {root!r} outside [{lo}, {hi}] or gap above {tol}"
    if len(roots) == 2:
        mid = math.sqrt(roots[0] * roots[1])
        lead = "noon" if _gap(mid, eta) > 0 else "ecs"
        if lines[-1] != f"between them the {lead} probe carries more information":
            return f"lead line {lines[-1]!r}, reference says {lead}"
    return None


def check_verify(stdout: str) -> str | None:
    last = stdout.rstrip("\n").splitlines()[-1:] or [""]
    return None if last[0] == "overall: PASS (14/14 checks)" else f"verify summary {last[0]!r}"
