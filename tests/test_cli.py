"""Command-line behavior: output shapes, determinism, exit codes."""

import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, example, given, settings

from phasefisher.cli import (
    CSV_HEADER,
    SweepConfig,
    find_crossings,
    main,
    qfi_ecs_ref_at_mean_photons,
    sweep_rows,
)
from phasefisher.exceptions import InvalidEta, NoCrossingFound
from phasefisher.qfi_analytic import (
    CLOSED_FORM,
    QFIResult,
    qfi_ecs_noref,
    qfi_noon_continuous,
)


def _stdout_value(out: str, key: str) -> float:
    for line in out.splitlines():
        if line.startswith(key):
            return float(line.split("=")[1].split()[0])
    raise AssertionError(f"no line starting with {key!r} in output:\n{out}")


SRC = Path(__file__).resolve().parents[1] / "src"
GOLDEN_SWEEP = Path(__file__).resolve().parent / "data" / "sweep_eta0.9.csv"


class TestPoint:
    def test_ecs_without_reference(self, capsys):
        rc = main(["point", "--family", "ecs", "--alpha", "1.0", "--eta", "0.9",
                   "--reference", "without"])
        assert rc == 0
        out = capsys.readouterr().out
        f = _stdout_value(out, "F")
        assert f == pytest.approx(qfi_ecs_noref(1.0, 0.9).value, rel=1e-15)
        assert _stdout_value(out, "dphi") == pytest.approx(f**-0.5, rel=1e-15)
        assert "closed_form" in out

    def test_noon(self, capsys):
        rc = main(["point", "--family", "noon", "--n", "3", "--eta", "0.9"])
        assert rc == 0
        f = _stdout_value(capsys.readouterr().out, "F")
        assert f == pytest.approx(9.0 * 0.9**3, rel=1e-15)

    def test_ecs_requires_reference(self, capsys):
        rc = main(["point", "--family", "ecs", "--alpha", "1.0", "--eta", "0.9"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_ecs_requires_alpha(self, capsys):
        rc = main(["point", "--family", "ecs", "--eta", "0.9", "--reference", "with"])
        assert rc == 2

    def test_noon_requires_n(self, capsys):
        rc = main(["point", "--family", "noon", "--eta", "0.9"])
        assert rc == 2

    def test_unknown_family_rejected_by_parser(self, capsys):
        rc = main(["point", "--family", "cat", "--eta", "0.9"])
        assert rc == 2

    def test_oracle_cross_check_passes(self, capsys):
        rc = main(["point", "--family", "ecs", "--alpha", "0.8", "--eta", "0.9",
                   "--reference", "without", "--oracle"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "oracle =" in out

    def test_oracle_cross_check_noon(self, capsys):
        rc = main(["point", "--family", "noon", "--n", "2", "--eta", "0.7", "--oracle"])
        assert rc == 0

    @pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("oracle", [[], ["--oracle"]], ids=["closed", "oracle"])
    def test_non_finite_alpha_exits_two(self, capsys, alpha, oracle):
        rc = main(["point", "--family", "ecs", f"--alpha={alpha}", "--eta", "0.9",
                   "--reference", "with", *oracle])
        assert rc == 2
        captured = capsys.readouterr()
        assert "nan" not in captured.out
        assert "alpha" in captured.err

    @pytest.mark.parametrize("reference", ["with", "without"])
    def test_alpha_beyond_double_range_exits_two(self, capsys, reference):
        # |alpha|^2 itself overflows at alpha = 1e200
        rc = main(["point", "--family", "ecs", "--alpha", "1e200", "--eta", "0.9",
                   "--reference", reference])
        assert rc == 2
        captured = capsys.readouterr()
        assert "nan" not in captured.out
        closed_form = "qfi_ecs_ref" if reference == "with" else "qfi_ecs_noref"
        assert captured.err.startswith(f"error: {closed_form} overflows double precision")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("alpha, exact", [("1e50", 9e99), ("1e100", 9e199)])
    def test_reference_beam_exact_at_huge_alpha(self, capsys, alpha, exact):
        # there F = 0.9 |alpha|^2: the x^2 term of the closed form is 0, and x^2 alone overflows
        rc = main(["point", "--family", "ecs", "--alpha", alpha, "--eta", "0.9",
                   "--reference", "with"])
        assert rc == 0
        assert _stdout_value(capsys.readouterr().out, "F") == pytest.approx(exact, rel=1e-15)

    def test_oversized_oracle_exits_two(self, capsys):
        rc = main(["point", "--family", "noon", "--n", "100000", "--eta", "0.9", "--oracle"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "oracle =" not in captured.out
        assert captured.err.startswith("error:") and "n_max=100000" in captured.err
        assert "Traceback" not in captured.err

    def test_oracle_breach_exits_three(self, capsys, monkeypatch):
        def inflated(alpha, eta):
            return QFIResult(1.2 * qfi_ecs_noref(alpha, eta).value, CLOSED_FORM)

        monkeypatch.setattr("phasefisher.cli.qfi_ecs_noref", inflated)
        rc = main(["point", "--family", "ecs", "--alpha", "0.8", "--eta", "0.9",
                   "--reference", "without", "--oracle"])
        assert rc == 3
        assert "exceeds" in capsys.readouterr().err


class TestSweepConfig:
    def test_grid_spacings(self):
        log = SweepConfig(eta=0.9, n_min=1.0, n_max=100.0, points=3).grid()
        assert list(log) == pytest.approx([1.0, 10.0, 100.0], rel=1e-12)
        lin = SweepConfig(eta=0.9, n_min=1.0, n_max=3.0, points=3, spacing="linear").grid()
        assert list(lin) == pytest.approx([1.0, 2.0, 3.0], rel=1e-12)

    def test_validation(self):
        with pytest.raises(InvalidEta):
            SweepConfig(eta=0.0)
        with pytest.raises(ValueError):
            SweepConfig(eta=0.9, n_min=-1.0)
        with pytest.raises(ValueError):
            SweepConfig(eta=0.9, n_min=5.0, n_max=2.0)
        with pytest.raises(ValueError):
            SweepConfig(eta=0.9, points=1)
        with pytest.raises(ValueError):
            SweepConfig(eta=0.9, spacing="geometric")


class TestSweep:
    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--eta", "0.9", "--output", str(out),
                   "--n-min", "1", "--n-max", "10", "--points", "5"])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 6
        for line in lines[1:]:
            assert len(line.split(",")) == 12
        first = lines[1].split(",")
        assert float(first[0]) == pytest.approx(1.0)
        assert float(first[1]) == 0.9
        # sensitivity columns are the inverse square roots of the F columns
        assert float(first[7]) == pytest.approx(float(first[3]) ** -0.5, rel=1e-15)

    def test_integer_flags_on_linear_grid(self, tmp_path):
        out = tmp_path / "lin.csv"
        rc = main(["sweep", "--eta", "0.8", "--output", str(out), "--n-min", "1",
                   "--n-max", "5", "--points", "5", "--spacing", "linear"])
        assert rc == 0
        flags = [line.split(",")[-1] for line in out.read_text().splitlines()[1:]]
        assert flags == ["true"] * 5

    def test_integer_flags_on_log_grid(self, tmp_path):
        out = tmp_path / "log.csv"
        main(["sweep", "--eta", "0.8", "--output", str(out),
              "--n-min", "1", "--n-max", "10", "--points", "5"])
        flags = [line.split(",")[-1] for line in out.read_text().splitlines()[1:]]
        assert flags == ["true", "false", "false", "false", "true"]

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--eta", "0.77", "--points", "37", "--output"]
        assert main(args + [str(a)]) == 0
        assert main(args + [str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_lossless_columns_coincide(self, tmp_path):
        out = tmp_path / "eta1.csv"
        main(["sweep", "--eta", "1.0", "--output", str(out),
              "--n-min", "0.5", "--n-max", "50", "--points", "20"])
        for line in out.read_text().splitlines()[1:]:
            cells = line.split(",")
            noref, ref = float(cells[3]), float(cells[4])
            assert abs(ref - noref) / noref <= 1e-9
            assert float(cells[10]) == pytest.approx(float(cells[0]) ** -0.5, rel=1e-12)

    def test_invalid_eta_exits_two_without_file(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        rc = main(["sweep", "--eta", "0.0", "--output", str(out)])
        assert rc == 2
        assert not out.exists()

    def test_trunc_tol_is_not_a_sweep_flag(self, tmp_path, capsys):
        # sweeps evaluate closed forms only, so there is no cutoff to tune
        out = tmp_path / "never.csv"
        rc = main(["sweep", "--eta", "0.9", "--output", str(out), "--trunc-tol", "1e-3"])
        assert rc == 2
        assert not out.exists()

    def test_unwritable_output_exits_two(self, tmp_path, capsys):
        rc = main(["sweep", "--eta", "0.9", "--points", "2", "--n-min", "1",
                   "--n-max", "2", "--output", str(tmp_path / "no" / "dir" / "x.csv")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_underflowed_fisher_exits_two_without_file(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        rc = main(["sweep", "--eta", "0.9", "--n-max", "1e9", "--output", str(out)])
        assert rc == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "underflows to 0 at N = " in err
        assert err.rstrip().endswith("lower --n-max")

    def test_underflow_below_one_photon_names_n_min(self, tmp_path, capsys):
        # F vanishes with N at the low end, so only a larger --n-min helps
        out = tmp_path / "never.csv"
        rc = main(["sweep", "--eta", "0.5", "--n-min", "1e-300", "--n-max", "1e300",
                   "--output", str(out)])
        assert rc == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "underflows to 0 at N = 1e-300" in err
        assert err.rstrip().endswith("raise --n-min")

    @pytest.mark.parametrize(
        "bound, value", [("n_max", "inf"), ("n_min", "nan"), ("n_max", "nan"), ("n_min", "-inf")]
    )
    def test_non_finite_range_exits_two_without_file(self, tmp_path, capsys, bound, value):
        out = tmp_path / "never.csv"
        flag = "--" + bound.replace("_", "-")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["sweep", "--eta", "0.9", "--output", str(out), f"{flag}={value}"])
        assert rc == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bound} must be finite"), err
        assert "Warning" not in err
        assert not caught, [str(w.message) for w in caught]

    def test_matches_golden_csv(self, tmp_path):
        """The default sweep against the committed tests/data/sweep_eta0.9.csv.

        Header and shape (201 lines of 12 cells) match exactly, every numeric
        cell to 1e-12 relative, every is_integer_n cell exactly.
        """
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--eta", "0.9", "--output", str(out)]) == 0
        golden = [line.split(",") for line in GOLDEN_SWEEP.read_text().splitlines()]
        fresh = [line.split(",") for line in out.read_text().splitlines()]
        assert fresh[0] == golden[0] == CSV_HEADER.split(",")
        assert len(golden) == 201
        assert [len(row) for row in fresh] == [len(row) for row in golden] == [12] * 201
        for i, (got, want) in enumerate(zip(fresh[1:], golden[1:]), start=1):
            assert got[-1] == want[-1], f"row {i}: is_integer_n {got[-1]} != {want[-1]}"
            for col, a, b in zip(golden[0], got[:-1], want[:-1]):
                assert math.isclose(float(a), float(b), rel_tol=1e-12, abs_tol=0.0), (
                    f"row {i} {col}: {a} != {b}"
                )

    def test_snl_column(self):
        rows = sweep_rows(SweepConfig(eta=0.25, n_min=4.0, n_max=8.0, points=2))
        cells = rows[1].split(",")
        assert float(cells[10]) == pytest.approx(1.0 / math.sqrt(0.25 * 4.0), rel=1e-14)


class TestCrossings:
    def test_two_crossings_at_moderate_loss(self, capsys):
        rc = main(["crossings", "--eta", "0.9"])
        assert rc == 0
        out = capsys.readouterr().out
        n1 = _stdout_value(out, "N1")
        n2 = _stdout_value(out, "N2")
        assert 0.1 < n1 < n2 < 200.0
        assert "noon probe carries more information" in out
        for root in (n1, n2):
            gap = qfi_noon_continuous(root, 0.9) - qfi_ecs_ref_at_mean_photons(root, 0.9)
            assert abs(gap) <= 1e-6

    def test_eta_must_be_lossy(self, capsys):
        assert main(["crossings", "--eta", "1.0"]) == 2
        assert main(["crossings", "--eta", "0.0"]) == 2

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-6"])
    def test_tolerance_must_be_finite_and_positive(self, capsys, tol):
        rc = main(["crossings", "--eta", "0.9", f"--tol={tol}"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "nan" not in captured.out
        assert "tolerance" in captured.err

    def test_no_sign_change_raises(self):
        # strictly inside the crossing pair the noon curve stays on top
        with pytest.raises(NoCrossingFound):
            find_crossings(0.9, n_min=5.0, n_max=20.0)

    def test_absence_reported_not_failed(self, capsys, monkeypatch):
        def none_found(eta, tolerance):
            raise NoCrossingFound("no crossing anywhere")

        monkeypatch.setattr("phasefisher.cli.find_crossings", none_found)
        rc = main(["crossings", "--eta", "0.5"])
        assert rc == 0
        assert "no crossing anywhere" in capsys.readouterr().out

    def test_unexpected_count_reported(self, capsys, monkeypatch):
        monkeypatch.setattr("phasefisher.cli.find_crossings", lambda eta, tol: [1.0, 2.0, 3.0])
        rc = main(["crossings", "--eta", "0.5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "found 3 crossing(s), expected 2" in out


class TestVerify:
    def test_single_point_passes_and_writes_report(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        rc = main(["verify", "--grid", "single", "--alpha", "0.5", "--eta", "1.0",
                   "--output", str(out)])
        assert rc == 0
        assert "overall: PASS" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert lines[0] == "check,passed,max_err,tolerance,detail"
        assert len(lines) == 15

    @pytest.mark.parametrize(
        "argv",
        [
            ["--trunc-tol", "0"],
            ["--grid", "single", "--alpha", "nan", "--eta", "0.9"],
            ["--eta", "1.5"],
        ],
        ids=["trunc-tol-0", "alpha-nan", "eta-1.5"],
    )
    def test_domain_error_exits_two_before_any_check(self, capsys, argv):
        rc = main(["verify", *argv])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize("alpha", ["0.5", "1", "2"])
    def test_eta_zero_passes(self, capsys, alpha):
        # both sides of every comparison are 0 at eta = 0, which counts as agreement
        rc = main(["verify", "--grid", "single", "--alpha", alpha, "--eta", "0"])
        assert rc == 0, capsys.readouterr().out
        assert "overall: PASS (14/14 checks)" in capsys.readouterr().out

    @pytest.mark.parametrize("alpha, eta", [("1", "5e-324"), ("1", "1e-300"), ("0.5", "5e-324")])
    def test_subnormal_eta_fails_without_traceback_or_warning(self, capsys, alpha, eta):
        """Below double range the two-level rows fail with a typed error, never PASS on NaN.

        The noon (and, where its closed form has not underflowed, the noref)
        row fails as well: the oracle's absolute eigenvalue floor zeroes a
        Fisher information of order eta. That is a known limit of the oracle,
        pinned here so that it is not hidden by loosening those rows.
        """
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["verify", "--grid", "single", "--alpha", alpha, "--eta", eta])
        assert rc == 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        # header, rule, one line per check, overall line
        rows = dict(line.split()[:2] for line in capsys.readouterr().out.splitlines()[2:-1])
        assert len(rows) == 14
        assert rows["spectrum_eigenvalues"] == "FAIL"
        assert rows["basis_matrix_vs_numeric"] == "FAIL"
        assert rows["noon_closed_vs_oracle"] == "FAIL"
        if eta == "1e-300":
            assert rows["noref_closed_vs_oracle"] == "FAIL"

    def test_loose_truncation_fails_honestly(self, capsys):
        rc = main(["verify", "--grid", "single", "--alpha", "0.5", "--eta", "0.9",
                   "--trunc-tol", "1e-2"])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out


def test_no_arguments_is_usage_error():
    assert main([]) == 2


# every float a flag can carry, with the edges drawn often
EDGE_FLOATS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 1e300, -1e300, 1e-300,
                     5e-324, 1.0]),
    st.floats(),
    st.floats(min_value=0.0, max_value=1.0),
)
EDGE_INTS = st.one_of(st.integers(-3, 60), st.sampled_from([10**6, 10**30, 10**400]))


def _flag(name: str, value) -> str:
    # `--flag=value` keeps argparse from reading a negative number as an option
    return f"--{name}={value!r}"


@st.composite
def _cli_argv(draw) -> list[str]:
    """argv for `point` without --oracle, `crossings`, or `sweep` of at most 50 points."""
    command = draw(st.sampled_from(["point-ecs", "point-noon", "crossings", "sweep"]))
    eta = _flag("eta", draw(EDGE_FLOATS))
    if command == "point-ecs":
        reference = draw(st.sampled_from(["with", "without"]))
        return ["point", "--family", "ecs", _flag("alpha", draw(EDGE_FLOATS)), eta,
                "--reference", reference]
    if command == "point-noon":
        return ["point", "--family", "noon", _flag("n", draw(EDGE_INTS)), eta]
    if command == "crossings":
        return ["crossings", eta, _flag("tol", draw(EDGE_FLOATS))]
    return ["sweep", eta, _flag("n-min", draw(EDGE_FLOATS)), _flag("n-max", draw(EDGE_FLOATS)),
            _flag("points", draw(st.integers(-2, 50))),
            "--spacing", draw(st.sampled_from(["log", "linear"])), "--output", "SWEEP"]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_cli_argv())
# eta |alpha|^2 below the smallest double: the true F underflows, so F = 0.0 and exit 0
@example(argv=["crossings", "--eta=5e-324", "--tol=1e-06"])
@example(argv=["sweep", "--eta=5e-324", "--points=5", "--output", "SWEEP"])
@example(argv=["point", "--family", "ecs", "--alpha=1e-160", "--eta=1e-300", "--reference", "with"])
def test_main_survives_arbitrary_numbers(tmp_path, capsys, argv):
    """Exit 0 or 2, never a traceback, never a printed nan, F finite on success."""
    out = tmp_path / "fuzz.csv"
    out.unlink(missing_ok=True)
    argv = [str(out) if a == "SWEEP" else a for a in argv]
    rc = main(argv)
    captured = capsys.readouterr()
    stdout = captured.out.replace(str(out), "")
    assert rc in (0, 2), (argv, captured)
    assert "Traceback" not in captured.err, (argv, captured.err)
    assert "nan" not in stdout, (argv, stdout)
    if argv[0] == "point" and rc == 0:
        assert math.isfinite(_stdout_value(stdout, "F    =")), (argv, stdout)
    if argv[0] == "sweep":
        assert out.exists() == (rc == 0), (argv, captured)


ORACLE_ALPHAS = st.one_of(
    st.sampled_from([math.nan, math.inf, 0.0, 5e-324, 1e-3, 1.5]),
    st.floats(min_value=-1.5, max_value=1.5),
)
TRUNC_TOLS = st.one_of(st.none(), st.sampled_from([math.nan, 0.0, 2.0, 1e-2, 1e-12]))


@st.composite
def _oracle_argv(draw) -> list[str]:
    """argv for `point --oracle` (ECS alpha <= 1.5, NOON n <= 40) or `verify --grid single`."""
    command = draw(st.sampled_from(["point-ecs", "point-noon", "verify"]))
    eta = _flag("eta", draw(EDGE_FLOATS))
    trunc_tol = draw(TRUNC_TOLS)
    tail = [] if trunc_tol is None else [_flag("trunc-tol", trunc_tol)]
    if command == "verify":
        return ["verify", "--grid", "single", _flag("alpha", draw(ORACLE_ALPHAS)), eta, *tail]
    if command == "point-ecs":
        reference = draw(st.sampled_from(["with", "without"]))
        return ["point", "--family", "ecs", _flag("alpha", draw(ORACLE_ALPHAS)), eta,
                "--reference", reference, "--oracle", *tail]
    return ["point", "--family", "noon", _flag("n", draw(st.integers(-3, 40))), eta,
            "--oracle", *tail]


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_oracle_argv())
def test_oracle_commands_survive_arbitrary_numbers(capsys, argv):
    """`point --oracle` exits 0, 2 or 3 and `verify` 0, 1 or 2: no traceback, nan or warning.

    Exit 3 and exit 1 include the oracle's false breaches near alpha = 1e-3,
    which come from its absolute eigenvalue and pair floors.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(argv)
    captured = capsys.readouterr()
    assert rc in ((0, 1, 2) if argv[0] == "verify" else (0, 2, 3)), (argv, captured)
    assert "Traceback" not in captured.err, (argv, captured.err)
    assert "nan" not in captured.out.split(), (argv, captured.out)  # "determinant" has one
    assert not caught, (argv, [str(w.message) for w in caught])


NOON_POINT = ["point", "--family", "noon", "--n", "2", "--eta", "0.5"]


def _checkout_env() -> dict[str, str]:
    """This environment with the checkout's src/ first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _assert_noon_point(proc: subprocess.CompletedProcess, what: str) -> None:
    report = f"{what}\nstdout:\n{proc.stdout}\nstderr:\n{proc.stderr}"
    assert proc.returncode == 0, f"exit code {proc.returncode}, expected 0: {report}"
    assert "F    =" in proc.stdout, f"no 'F    =' line: {report}"


def test_console_script_installed():
    # An installed executable is checked as is, wherever one is on PATH.
    exe = shutil.which("phasefisher")
    if exe is not None:
        proc = subprocess.run([exe, *NOON_POINT], capture_output=True, text=True,
                              timeout=120)
        _assert_noon_point(proc, f"installed executable {exe}")

    # The declared entry point is checked from this checkout, installed or not,
    # by running what an installer's wrapper script runs.
    tomllib = pytest.importorskip("tomllib")
    pyproject = SRC.parent / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh).get("project", {}).get("scripts", {})
    entry = scripts.get("phasefisher")
    assert entry is not None, f"{pyproject} declares no [project.scripts] phasefisher entry"
    module, sep, func = entry.partition(":")
    assert sep and module and func, f"entry {entry!r} is not of the form module:function"
    wrapper = f"import sys\nfrom {module} import {func}\nsys.argv[0] = 'phasefisher'\nsys.exit({func}())\n"
    proc = subprocess.run([sys.executable, "-c", wrapper, *NOON_POINT], cwd=SRC,
                          env=_checkout_env(), capture_output=True, text=True, timeout=120)
    last_err = (proc.stderr.strip().splitlines() or [""])[-1]
    if proc.returncode and last_err.startswith(("ImportError", "ModuleNotFoundError")):
        pytest.fail(f"entry {entry!r} is not importable from {SRC}: {last_err}")
    _assert_noon_point(proc, f"declared entry point {entry!r} run from {SRC}")


def _fresh_interpreter(code: str) -> list[str]:
    """Run code in a new interpreter on this checkout's src/; return its stdout lines."""
    proc = subprocess.run([sys.executable, "-c", code], env=_checkout_env(), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, f"stdout:\n{proc.stdout}\nstderr:\n{proc.stderr}"
    return proc.stdout.splitlines()


# a meta-path finder that makes every scipy import fail, as on a numpy-only install
_BLOCK_SCIPY = (
    "import sys\n"
    "class NoScipy:\n"
    "    def find_spec(self, name, path=None, target=None):\n"
    "        if name.partition('.')[0] == 'scipy':\n"
    "            raise ImportError(f'{name} is not installed')\n"
    "sys.meta_path.insert(0, NoScipy())\n"
)

ECS = ["point", "--family", "ecs", "--alpha", "1", "--eta", "0.9", "--reference"]


@pytest.mark.parametrize(
    "argv",
    [
        None,
        [*ECS, "with"],
        [*ECS, "without"],
        ["point", "--family", "noon", "--n", "3", "--eta", "0.9"],
        [*ECS, "with", "--oracle"],
        [*ECS, "without", "--oracle"],
        ["sweep", "--eta", "0.9", "--output", "SWEEP"],
        ["crossings", "--eta", "0.9"],
        ["verify", "--grid", "single", "--alpha", "1", "--eta", "0.9"],
    ],
    ids=["import", "point-ecs-with", "point-ecs-without", "point-noon",
         "oracle-ecs-with", "oracle-ecs-without", "sweep", "crossings", "verify"],
)
def test_no_scipy_import_outside_beam_splitter(tmp_path, argv):
    # the package depends on numpy alone, the beam-splitter cross-check in
    # verify included, so every path runs in an interpreter that has no scipy
    if argv is None:
        code = "import phasefisher\nprint('imported')\n"
    else:
        argv = [str(tmp_path / "sweep.csv") if a == "SWEEP" else a for a in argv]
        code = f"from phasefisher.cli import main\nprint('exit', main({argv!r}))\n"
    lines = _fresh_interpreter(_BLOCK_SCIPY + code)
    assert lines[-1] == ("imported" if argv is None else "exit 0"), lines


def test_scipy_blocker_blocks_scipy():
    code = _BLOCK_SCIPY + "try:\n    import scipy.linalg\nexcept ImportError as exc:\n    print(exc)\n"
    assert _fresh_interpreter(code)[-1:] == ["scipy is not installed"]


def test_depends_on_numpy_alone():
    tomllib = pytest.importorskip("tomllib")
    with (SRC.parent / "pyproject.toml").open("rb") as fh:
        assert tomllib.load(fh)["project"]["dependencies"] == ["numpy>=1.24"]
