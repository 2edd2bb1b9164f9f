"""Command-line behavior: output shapes, determinism, exit codes."""

import errno
import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, example, given, settings

from perfbench.reference import f_noon, f_noref, f_ref, f_ref_asym, mean_photons
from phasefisher.cli import (
    CSV_HEADER,
    MAX_SWEEP_POINTS,
    SWEEP_BLOCK_ROWS,
    SweepConfig,
    find_crossings,
    main,
    qfi_ecs_ref_at_mean_photons,
    sweep_rows,
)
from phasefisher.exceptions import InvalidEta, NoCrossingFound
from phasefisher.qfi_analytic import (
    QFIResult,
    qfi_ecs_noref,
    qfi_ecs_ref,
    qfi_ecs_ref_asymptotic,
    qfi_noon_continuous,
    sensitivity,
)
from phasefisher.qfi_oracle import ORACLE_POINT_TOL
from phasefisher.states import alpha_for_mean_photon


def _stdout_value(out: str, key: str) -> float:
    for line in out.splitlines():
        if line.startswith(key):
            return float(line.split("=")[1].split()[0])
    raise AssertionError(f"no line starting with {key!r} in output:\n{out}")


def _sweep_lines(cfg: SweepConfig) -> list[str]:
    """The lines of the text sweep_rows gives, each of which ends in a newline."""
    text = "".join(sweep_rows(cfg))
    assert text.endswith("\n")
    return text[:-1].split("\n")


SRC = Path(__file__).resolve().parents[1] / "src"
GOLDEN_SWEEP = Path(__file__).resolve().parent / "data" / "sweep_eta0.9.csv"


def _assert_failed_write_removes_only_a_regular_file(tmp_path, capsys, monkeypatch, argv,
                                                     error=None, writes=0):
    """argv + [--output, path] fails when the write after the first `writes` raises error.

    The default error is a full disk's OSError, on which main exits 2 with an
    `error:` line; any other error must leave main. A partial regular file is
    removed; a symlink the path names is kept, and so is its target.
    Returns each run's stdout.
    """
    error = error or OSError(errno.ENOSPC, "No space left on device")

    class FailingFile:
        def __init__(self, path, *args, **kwargs):
            self.path, self.writes = Path(path), 0
            self.path.write_text("")

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def write(self, text):
            with self.path.open("a") as fh:
                if self.writes == writes:
                    fh.write(text[:10])
                    raise error
                fh.write(text)
            self.writes += 1

    monkeypatch.setattr("phasefisher.cli.open", FailingFile, raising=False)
    target = tmp_path / "target.csv"
    target.write_text("keep me\n")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    regular = tmp_path / "partial.csv"
    outs = []
    for out in (link, regular):
        if isinstance(error, OSError):
            assert main([*argv, "--output", str(out)]) == 2
        else:
            with pytest.raises(type(error)):
                main([*argv, "--output", str(out)])
        captured = capsys.readouterr()
        assert captured.err == (f"error: {error}\n" if isinstance(error, OSError) else "")
        outs.append(captured.out)
    assert link.is_symlink() and target.is_file()
    assert not regular.exists()
    return outs


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

    @pytest.mark.parametrize(
        "alpha, eta, reference", [("1e-3", "0.9", "with"), ("8", "0.6", "without")]
    )
    def test_oracle_counts_information_in_small_eigenvalues(self, capsys, alpha, eta, reference):
        """The lossy state's information sits in eigenvalues far below 1e-12.

        At alpha 1e-3 the minor eigenvalue of the lossy ECS is 2.2e-14; at
        alpha 8, eta 0.6 each sector keeps its coherence in a pair of weight
        eta^n, below 1e-12 past n = 54. An oracle that zeroes such eigenvalues
        reads low and reports a breach (exit 3).
        """
        rc = main(["point", "--family", "ecs", "--alpha", alpha, "--eta", eta,
                   "--reference", reference, "--oracle"])
        captured = capsys.readouterr()
        assert rc == 0, captured
        deviation = float(captured.out.split("relative deviation ")[1].split()[0])
        assert deviation <= ORACLE_POINT_TOL[("ecs", reference)]

    @pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("oracle", [[], ["--oracle"]], ids=["closed", "oracle"])
    def test_non_finite_alpha_exits_two(self, capsys, alpha, oracle):
        rc = main(["point", "--family", "ecs", f"--alpha={alpha}", "--eta", "0.9",
                   "--reference", "with", *oracle])
        assert rc == 2
        captured = capsys.readouterr()
        assert "nan" not in captured.out
        assert "alpha" in captured.err

    @pytest.mark.parametrize("oracle", [[], ["--oracle"]], ids=["closed", "oracle"])
    def test_alpha_whose_square_underflows_exits_two(self, capsys, oracle):
        # (1e-200)^2 is 0 in double precision, where every closed form reads alpha = 0;
        # alpha 1e-160 keeps a subnormal square and runs (the fuzz test pins it)
        rc = main(["point", "--family", "ecs", "--alpha", "1e-200", "--eta", "0.5",
                   "--reference", "with", *oracle])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ECS probe needs |alpha|^2 > 0")

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

    @pytest.mark.parametrize("reference", ["with", "without"])
    def test_no_transmission_at_huge_alpha_exits_zero(self, capsys, reference):
        # |alpha|^4 overflows to inf at alpha 1e100; F is 0 at eta 0 all the same
        rc = main(["point", "--family", "ecs", "--alpha", "1e100", "--eta", "0",
                   "--reference", reference])
        assert rc == 0
        out = capsys.readouterr().out
        assert _stdout_value(out, "F") == 0.0 and _stdout_value(out, "dphi") == math.inf

    def test_subnormal_decay_keeps_the_fisher_information(self, capsys):
        # e^{-|alpha|^2 (1 - eta)} is e^{-746}, below 2^-1022, and F is a normal double
        rc = main(["point", "--family", "ecs", "--alpha", "1e8", "--eta", "0.9999999999999254",
                   "--reference", "without"])
        assert rc == 0
        f = _stdout_value(capsys.readouterr().out, "F")
        assert f == pytest.approx(float(f_noref(1e8, 0.9999999999999254)), rel=1e-13, abs=0.0)

    def test_oversized_oracle_exits_two(self, capsys):
        rc = main(["point", "--family", "noon", "--n", "100000", "--eta", "0.9", "--oracle"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "oracle =" not in captured.out
        assert captured.err.startswith("error:") and "n_max=100000" in captured.err
        assert "Traceback" not in captured.err

    def test_oversized_ecs_oracle_exits_two(self, capsys):
        rc = main(["point", "--family", "ecs", "--alpha", "1e8", "--eta", "0.9",
                   "--reference", "with", "--oracle"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "oracle =" not in captured.out
        assert captured.err.startswith("error: cutoff n_max=")
        assert "the oracle allows" in captured.err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["--family", "noon", "--n", "5", "--eta", "0.9", "--alpha", "3"], "--alpha"),
            (["--family", "ecs", "--alpha", "1", "--n", "5", "--eta", "0.9", "--reference", "with"],
             "--n"),
        ],
        ids=["noon-alpha", "ecs-n"],
    )
    def test_other_familys_flag_exits_two_before_printing(self, capsys, argv, flag):
        # no flag is accepted and then ignored
        rc = main(["point", *argv])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {flag} applies only to the ")

    def test_dphi_is_the_library_sensitivity(self, capsys):
        # point, sweep and sensitivity print (m F)^{-1/2} from the same pow, to the last bit
        rc = main(["point", "--family", "ecs", "--alpha", "1.0", "--eta", "0.9",
                   "--reference", "with"])
        assert rc == 0
        dphi = _stdout_value(capsys.readouterr().out, "dphi")
        assert dphi == sensitivity(qfi_ecs_ref(1.0, 0.9).value) == 0.9238537020429951
        header = CSV_HEADER.split(",")
        f_col, dphi_col = header.index("f_ecs_ref"), header.index("dphi_ecs_ref")
        for line in _sweep_lines(SweepConfig(eta=0.9))[1:]:
            cells = line.split(",")
            assert float(cells[dphi_col]) == sensitivity(float(cells[f_col])), line

    def test_oracle_breach_exits_three(self, capsys, monkeypatch):
        def inflated(alpha, eta):
            return QFIResult(1.2 * qfi_ecs_noref(alpha, eta).value)

        monkeypatch.setattr("phasefisher.cli.qfi_ecs_noref", inflated)
        rc = main(["point", "--family", "ecs", "--alpha", "0.8", "--eta", "0.9",
                   "--reference", "without", "--oracle"])
        assert rc == 3
        assert "exceeds" in capsys.readouterr().err

    def test_oracle_deviation_is_the_verify_rule(self, capsys, monkeypatch):
        # verify's relative error: a closed form of 0 against a nonzero oracle is infinitely off
        monkeypatch.setattr("phasefisher.cli.qfi_noon", lambda n, eta: QFIResult(0.0))
        rc = main(["point", "--family", "noon", "--n", "1", "--eta", "0.9", "--oracle"])
        assert rc == 3
        assert "relative deviation inf (tolerance 1e-09)" in capsys.readouterr().out


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
        assert SweepConfig(eta=0.9, points=MAX_SWEEP_POINTS).points == MAX_SWEEP_POINTS
        for points in (MAX_SWEEP_POINTS + 1, 10**13, 10**400):
            with pytest.raises(ValueError, match=f"at most {MAX_SWEEP_POINTS} points"):
                SweepConfig(eta=0.9, points=points)
        # a float count once passed here and failed in sweep_rows with numpy's TypeError
        for points in (2.5, 200.0, "200", None):
            with pytest.raises(ValueError, match="points must be an integer"):
                SweepConfig(eta=0.9, points=points)


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

    def test_unwritable_output_exits_two(self, tmp_path, capsys):
        rc = main(["sweep", "--eta", "0.9", "--points", "2", "--n-min", "1",
                   "--n-max", "2", "--output", str(tmp_path / "no" / "dir" / "x.csv")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_refused_open_deletes_nothing(self, tmp_path, capsys, monkeypatch):
        # as a read-only file refuses a non-root user
        out = tmp_path / "mine.csv"
        out.write_text("keep me\n")

        def refuse(path, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr("phasefisher.cli.open", refuse, raising=False)
        rc = main(["sweep", "--eta", "0.9", "--points", "5", "--output", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: [Errno 13] Permission denied")
        assert out.read_text() == "keep me\n"

    def test_failed_write_removes_only_a_regular_file(self, tmp_path, capsys, monkeypatch):
        argv = ["sweep", "--eta", "0.9", "--points", "5"]
        _assert_failed_write_removes_only_a_regular_file(tmp_path, capsys, monkeypatch, argv)

    def test_interrupted_write_removes_only_a_regular_file(self, tmp_path, capsys, monkeypatch):
        # rows are rendered after the open: an interrupt between two blocks leaves no partial CSV
        argv = ["sweep", "--eta", "0.9", "--points", "5"]
        _assert_failed_write_removes_only_a_regular_file(
            tmp_path, capsys, monkeypatch, argv, error=KeyboardInterrupt(), writes=1
        )

    def test_rows_are_written_a_block_at_a_time(self, tmp_path, capsys):
        # holding the whole CSV, about 455 B a row, would trace about 8.7 MiB here
        import numpy  # noqa: F401  numpy's import is not the sweep's memory

        out = tmp_path / "sweep.csv"
        tracemalloc.start()
        try:
            rc = main(["sweep", "--eta", "0.9", "--points", "20000", "--output", str(out)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak < 4 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"

    def test_underflowed_fisher_exits_two_without_file(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        rc = main(["sweep", "--eta", "0.9", "--n-max", "1e9", "--output", str(out)])
        assert rc == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "underflows to 0 at N = " in err
        assert err.rstrip().endswith("lower --n-max")

    def test_underflow_past_the_first_block_names_its_row(self, tmp_path, capsys):
        # grid row 1455 is the first to underflow, in the second block
        cfg = SweepConfig(eta=0.9, n_max=1e9, points=3000)
        assert SWEEP_BLOCK_ROWS < 1455 and cfg.grid()[1455] == 7105.869146093529
        # every row is checked before the output is opened, so an existing file keeps its bytes
        existing = tmp_path / "existing.csv"
        existing.write_bytes(b"keep me\n")
        for out in (tmp_path / "never.csv", existing):
            rc = main(["sweep", "--eta", "0.9", "--n-max", "1e9", "--points", "3000",
                       "--output", str(out)])
            assert rc == 2
            assert capsys.readouterr().err == (
                "error: Fisher information underflows to 0 at N = 7105.869146093529 (eta = 0.9), "
                "so its sensitivity is undefined; lower --n-max\n"
            )
        assert not (tmp_path / "never.csv").exists()
        assert existing.read_bytes() == b"keep me\n"

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

    @pytest.mark.parametrize(
        "eta, spacing, n_min, n_max, points",
        [
            (0.9, "log", 0.1, 200.0, SWEEP_BLOCK_ROWS + 300),
            (0.55, "linear", 1.0, 400.0, 200),
            (0.987654, "log", 1e-3, 1e4, SWEEP_BLOCK_ROWS),
            # every exp argument (1 - eta) |alpha|^2 is -0 or +0
            (1.0, "log", 0.1, 200.0, 300),
            (0.05, "log", 0.1, 200.0, 300),
        ],
        ids=["log-two-blocks", "linear-part-block", "log-one-block", "no-loss", "heavy-loss"],
    )
    def test_rows_equal_the_scalar_functions(self, eta, spacing, n_min, n_max, points):
        """Blocked rows are, byte for byte, rows built from the public scalar functions."""
        cfg = SweepConfig(eta=eta, n_min=n_min, n_max=n_max, points=points, spacing=spacing)
        want = [CSV_HEADER]
        for nm in cfg.grid().tolist():
            alpha = alpha_for_mean_photon(nm)
            f_noref = qfi_ecs_noref(alpha, eta).value
            f_ref = qfi_ecs_ref(alpha, eta).value
            f_noon = qfi_noon_continuous(nm, eta)
            values = (nm, eta, alpha, f_noref, f_ref, qfi_ecs_ref_asymptotic(alpha, eta).value,
                      f_noon, f_noref**-0.5, f_ref**-0.5, f_noon**-0.5, 1.0 / math.sqrt(eta * nm))
            flag = "true" if abs(nm - round(nm)) < 1e-9 else "false"
            want.append(",".join(map(repr, values)) + "," + flag)
        assert _sweep_lines(cfg) == want

    def test_integer_eta_rows_equal_float_eta_rows(self):
        # a library caller's eta=1 writes the eta cell as 1.0, as `sweep --eta 1` does
        assert _sweep_lines(SweepConfig(eta=1, points=5)) == _sweep_lines(SweepConfig(eta=1.0, points=5))

    def test_no_loss_overflow_near_the_largest_double(self, tmp_path, capsys):
        # F_noref overflows first in the first row, before F_ref_asym
        out = tmp_path / "never.csv"
        rc = main(["sweep", "--eta", "1", "--n-min", "1e300", "--n-max", "1.7976931348623157e308",
                   "--points", "7", "--output", str(out)])
        assert rc == 2
        assert not out.exists()
        assert capsys.readouterr().err == "error: QFI is inf: inputs beyond double precision\n"

    def test_large_mean_photon_numbers(self, tmp_path):
        # past N = 2^17 the doubles around N are coarser than 1e-10
        _assert_sweep_matches_reference(tmp_path, "0.999999", "1e5", "1e7", 50)

    def test_tiny_mean_photon_numbers(self, tmp_path):
        # far below one photon, where N rounds to 0 but no NOON state has n = 0
        flags = _assert_sweep_matches_reference(tmp_path, "0.9", "1e-12", "1e-9", 3)
        assert flags == ["false"] * 3

    def test_snl_column(self):
        rows = _sweep_lines(SweepConfig(eta=0.25, n_min=4.0, n_max=8.0, points=2))
        cells = rows[1].split(",")
        assert float(cells[10]) == pytest.approx(1.0 / math.sqrt(0.25 * 4.0), rel=1e-14)


def _assert_sweep_matches_reference(tmp_path, eta, n_min, n_max, points) -> list[str]:
    """Each row's alpha hits its N to 4 ulps and each F is the 50-digit value; returns the flags."""
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--eta", eta, "--n-min", n_min, "--n-max", n_max,
               "--points", str(points), "--output", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == points + 1
    for line in lines[1:]:
        nm, eta, alpha, *fisher = (float(c) for c in line.split(",")[:7])
        assert abs(mean_photons(alpha) - nm) <= 4 * math.ulp(nm), line
        refs = (f_noref(alpha, eta), f_ref(alpha, eta), f_ref_asym(alpha, eta), f_noon(nm, eta))
        for got, ref in zip(fisher, refs):
            assert abs(got - ref) <= 1e-13 * ref, line
    return [line.split(",")[-1] for line in lines[1:]]


class TestCrossings:
    def test_two_crossings_at_moderate_loss(self, capsys):
        rc = main(["crossings", "--eta", "0.9"])
        assert rc == 0
        out = capsys.readouterr().out
        n1 = _stdout_value(out, "N1")
        n2 = _stdout_value(out, "N2")
        assert 0.1 < n1 < n2 < 200.0
        assert "noon probe carries more information" in out
        # the grid gaps come from one array call, bit for bit the scalar gaps
        assert (n1, n2) == (3.325871748277586, 34.226161748707064)
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

    def test_subnormal_eta_finds_its_root(self, capsys):
        # the gaps around the root are subnormal, and their product underflows to -0.0
        rc = main(["crossings", "--eta", "5e-324"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "found 1 crossing(s)" in out
        assert 0.98 <= _stdout_value(out, "N1") <= 1.03

    def test_stalled_bisection_exits_two(self, capsys):
        # no midpoint's gap gets within 1e-300 before the bracket stops shrinking
        rc = main(["crossings", "--eta", "0.9", "--tol", "1e-300"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: bisection stalled on bracket [")
        assert captured.err.endswith("] at eta=0.9\n")
        assert "Traceback" not in captured.err
        # the second bracket, shrunk to two adjacent doubles
        assert captured.err == (
            "error: bisection stalled on bracket [34.22616141893186, 34.226161418931866] at eta=0.9\n"
        )

    def test_no_sign_change_raises(self):
        # at eta 0.5 the ecs curve stays on top over the whole grid [0.1, 200]
        with pytest.raises(NoCrossingFound):
            find_crossings(0.5)

    def test_exact_zero_grid_gaps_are_roots(self, monkeypatch):
        # at eta 0.5 every grid gap is negative; one exactly 0 at an interior point and at
        # the last point makes each of those points a root as it is, with no bisection
        import numpy as np

        from phasefisher import cli

        gap = cli._gap
        ns = np.geomspace(*cli.DEFAULT_SWEEP_RANGE, cli.DEFAULT_SWEEP_POINTS)

        def gap_zero_at_two_points(n_mean, eta):
            gaps = gap(n_mean, eta)
            assert len(gaps) == ns.size and all(g < 0.0 for g in gaps)  # the grid call alone
            gaps[50] = gaps[-1] = 0.0
            return gaps

        monkeypatch.setattr(cli, "_gap", gap_zero_at_two_points)
        assert find_crossings(0.5) == [float(ns[50]), float(ns[-1])]

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
    def test_failed_write_removes_only_a_regular_file(self, tmp_path, capsys, monkeypatch):
        argv = ["verify", "--grid", "single", "--alpha", "0.5", "--eta", "0.9"]
        outs = _assert_failed_write_removes_only_a_regular_file(tmp_path, capsys, monkeypatch, argv)
        # the report is printed before the CSV is written
        assert all("overall: PASS (14/14 checks)" in out for out in outs)

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
            ["--grid", "single", "--alpha", "nan", "--eta", "0.9"],
            ["--grid", "single", "--alpha", "1e155", "--eta", "0.9"],
            # every closed form tests |alpha|^2 == 0, and three rows would fail
            ["--grid", "single", "--alpha", "1e-200", "--eta", "0.5"],
            # the cutoff (n_max 1039) fits, the stability row's doubled one (2078) does not
            ["--grid", "single", "--alpha", "28.75", "--eta", "0.9"],
            ["--eta", "1.5"],
        ],
        ids=["alpha-nan", "alpha-squared-overflows", "alpha-squared-underflows",
             "doubled-cutoff-too-large",
             "eta-1.5"],
    )
    def test_domain_error_exits_two_before_any_check(self, capsys, argv):
        rc = main(["verify", *argv])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize(
        "argv",
        [["--alpha", "7", "--eta", "0.3"], ["--alpha", "0.5"], ["--grid", "full", "--eta", "1"]],
        ids=["both", "alpha", "eta"],
    )
    def test_point_flags_need_the_single_grid(self, capsys, argv):
        rc = main(["verify", *argv])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "--grid single" in captured.err

    @pytest.mark.parametrize("alpha", ["0.5", "1", "2"])
    def test_eta_zero_passes(self, capsys, alpha):
        # both sides of every comparison are 0 at eta = 0, which counts as agreement
        rc = main(["verify", "--grid", "single", "--alpha", alpha, "--eta", "0"])
        assert rc == 0, capsys.readouterr().out
        assert "overall: PASS (14/14 checks)" in capsys.readouterr().out

    @pytest.mark.parametrize("alpha, eta", [("1", "5e-324"), ("1", "1e-300"), ("0.5", "5e-324")])
    def test_subnormal_eta_fails_without_traceback_or_warning(self, capsys, alpha, eta):
        """At the bottom of double range a row fails only where eta has left the state.

        At eta 1e-300 every row passes: each component's eigensolve is
        relative to its own trace, so a Fisher information of order eta is
        kept, and the two-level rows take 1 - p from ||psi2 - psi1||^2 / 2,
        which does not cancel. At alpha 1, eta 5e-324 the lossy branches
        still differ (their one-photon weights are 5e-324), so the two-level
        rows pass; at alpha 0.5 those weights underflow to 0 and both rows
        fail with the typed "coincide" error, never on NaN. At eta 5e-324
        the noon row fails with a relative error of 1: the lossy NOON(1)
        state's one-photon entries, eta/2 exactly, lie between 0 and the
        smallest subnormal, so the oracle's two routes round them to 0 (with
        a reference, F = 0) and to 5e-324 each (without one, F = 1e-323)
        against the closed form's 5e-324. The state itself holds no bit of
        eta there; the noref closed form and oracle are both 0.
        """
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["verify", "--grid", "single", "--alpha", alpha, "--eta", eta])
        assert rc == (0 if eta == "1e-300" else 1)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        # header, rule, one line per check, overall line
        lines = capsys.readouterr().out.splitlines()[2:-1]
        rows = dict(line.split()[:2] for line in lines)
        assert len(rows) == 14
        two_level = "FAIL" if alpha == "0.5" else "PASS"
        assert rows["spectrum_eigenvalues"] == two_level
        assert rows["basis_matrix_vs_numeric"] == two_level
        if two_level == "FAIL":
            assert sum("error: the two lossy branches coincide" in line for line in lines) == 2
        assert rows["noref_closed_vs_oracle"] == "PASS"
        assert rows["noon_closed_vs_oracle"] == ("PASS" if eta == "1e-300" else "FAIL")

    @pytest.mark.parametrize(
        "argv, rc, status",
        [([], 0, "PASS"), (["--alpha", "1", "--eta", "1e-300"], 0, "PASS")],
        ids=["default", "eta-1e-300"],
    )
    def test_ref_row_compares_every_point(self, capsys, argv, rc, status):
        """The ref row skips no point, also where the minor eigenvalue is tiny.

        At alpha 1, eta 1e-300 (gamma_minus below GAMMA_MINUS_FLOOR) the
        oracle gives 7.310585786299656e-301 against the closed form's
        7.310585786300049e-301, 5.4e-14 apart: qfi_numeric forms each pair's
        (w_i - w_j)/(w_i + w_j) before multiplying by w_i - w_j, so no squared
        eigenvalue difference underflows. The run exits 0: the two spectrum
        rows pass there too.
        """
        assert main(["verify", "--grid", "single", *argv]) == rc
        rows = {line.split()[0]: line.split() for line in capsys.readouterr().out.splitlines()}
        assert rows["ref_closed_vs_oracle"][1] == status
        assert rows["ref_closed_vs_oracle"][4:] == ["1", "points"]


def test_no_arguments_is_usage_error():
    assert main([]) == 2


SUBCOMMAND_FLAGS = {
    "point": {"--family", "--alpha", "--n", "--eta", "--reference", "--oracle"},
    "sweep": {"--eta", "--output", "--n-min", "--n-max", "--points", "--spacing"},
    "crossings": {"--eta", "--tol"},
    "verify": {"--grid", "--alpha", "--eta", "--output"},
}


@pytest.mark.parametrize("command", SUBCOMMAND_FLAGS)
def test_subcommand_help_names_every_flag(capsys, command):
    assert main([command, "--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: phasefisher {command} ")
    assert set(re.findall(r"--[a-z][a-z-]*", out)) == SUBCOMMAND_FLAGS[command] | {"--help"}


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--eta", "0.9", "--output", "OUT"],
        ["point", "--family", "ecs", "--alpha", "1", "--eta", "0.9", "--reference", "with",
         "--oracle"],
        ["verify", "--grid", "single", "--output", "OUT"],
    ],
    ids=["sweep", "point-oracle", "verify"],
)
def test_trunc_tol_is_not_a_flag(tmp_path, capsys, argv):
    # the oracle's cutoff is a rule of alpha alone, and sweeps have no cutoff
    out = tmp_path / "never.csv"
    rc = main([str(out) if a == "OUT" else a for a in argv] + ["--trunc-tol", "1e-3"])
    assert rc == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


# every float a flag can carry, with the edges drawn often
EDGE_FLOATS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 1e300, -1e300, 1e-300,
                     5e-324, 1.0]),
    st.floats(),
    st.floats(min_value=0.0, max_value=1.0),
)
EDGE_INTS = st.one_of(st.integers(-3, 60), st.sampled_from([10**6, 10**30, 10**400]))
# the ceiling itself runs a million-row sweep, so TestSweepConfig checks that it is accepted
OVER_CEILING = st.sampled_from([MAX_SWEEP_POINTS + 1, 10**13, 10**400])


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
            _flag("points", draw(st.one_of(st.integers(-2, 50), OVER_CEILING))),
            "--spacing", draw(st.sampled_from(["log", "linear"])), "--output", "SWEEP"]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_cli_argv())
# eta |alpha|^2 below the smallest double: the true F underflows, so F = 0.0 and exit 0
@example(argv=["crossings", "--eta=5e-324", "--tol=1e-06"])
@example(argv=["sweep", "--eta=5e-324", "--points=5", "--output", "SWEEP"])
# past the points ceiling: numpy's MemoryError, OverflowError or size error without it
@example(argv=["sweep", "--eta=0.9", f"--points={MAX_SWEEP_POINTS + 1}", "--output", "SWEEP"])
@example(argv=["sweep", "--eta=0.9", "--points=10000000000000", "--output", "SWEEP"])
@example(argv=["sweep", "--eta=0.9", f"--points={10**400}", "--output", "SWEEP"])
@example(argv=["point", "--family", "ecs", "--alpha=1e-160", "--eta=1e-300", "--reference", "with"])
# eta N, the shot-noise Fisher information, underflows while the other three do not
@example(argv=["sweep", "--eta=1e-300", "--n-min=3.655655236072348e-25", "--n-max=1.0",
               "--points=2", "--output", "SWEEP"])
# geomspace and linspace overflow on their way to a stop next to the largest double
@example(argv=["sweep", "--eta=1e-300", "--n-min=1e+300", "--n-max=1.7976931348622103e+308",
               "--points=2", "--output", "SWEEP"])
@example(argv=["sweep", "--eta=1e-300", "--n-min=1.0", "--n-max=1.7976931348623157e+308",
               "--points=37", "--spacing", "linear", "--output", "SWEEP"])
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


@st.composite
def _oracle_argv(draw) -> list[str]:
    """argv for `point --oracle` (ECS alpha <= 1.5, NOON n <= 40) or `verify --grid single`."""
    command = draw(st.sampled_from(["point-ecs", "point-noon", "verify"]))
    eta = _flag("eta", draw(EDGE_FLOATS))
    if command == "verify":
        return ["verify", "--grid", "single", _flag("alpha", draw(ORACLE_ALPHAS)), eta]
    if command == "point-ecs":
        reference = draw(st.sampled_from(["with", "without"]))
        return ["point", "--family", "ecs", _flag("alpha", draw(ORACLE_ALPHAS)), eta,
                "--reference", reference, "--oracle"]
    return ["point", "--family", "noon", _flag("n", draw(st.integers(-3, 40))), eta, "--oracle"]


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_oracle_argv())
def test_oracle_commands_survive_arbitrary_numbers(capsys, argv):
    """`point --oracle` exits 0, 2 or 3 and `verify` 0, 1 or 2: no traceback, nan or warning.

    Exit 3 and exit 1 come from arguments the oracle cannot represent, such
    as an eta whose lossy entries fall below the smallest subnormal.
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


@pytest.mark.parametrize(
    "argv",
    [NOON_POINT, ["verify", "--grid", "single"], ["sweep", "--eta", "0.9", "--output", "sweep.csv"]],
    ids=["point", "verify", "sweep"],
)
def test_closed_stdout_exits_141_without_a_word(tmp_path, argv):
    # the reader's end is closed before the child starts, so its first write to stdout fails
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "phasefisher.cli", *argv], cwd=tmp_path,
                              env=_checkout_env(), stdout=write, stderr=subprocess.PIPE, timeout=120)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, b"")


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


def _fresh_interpreter(code: str, *options: str) -> list[str]:
    """Run code in a new interpreter, with options, on this checkout's src/; return its stdout lines."""
    proc = subprocess.run([sys.executable, *options, "-c", code], env=_checkout_env(),
                          capture_output=True, text=True, timeout=120)
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
    # verify included, so every path runs in an interpreter that has no scipy;
    # nor does any path import numpy.ma, which np.unique and np.union1d pull in
    # (numpy 1.x imports it with numpy itself, so the check is that no path adds it)
    if argv is None:
        code = "import phasefisher\nprint('imported')\n"
    else:
        argv = [str(tmp_path / "sweep.csv") if a == "SWEEP" else a for a in argv]
        code = f"from phasefisher.cli import main\nprint('exit', main({argv!r}))\n"
    has_ma = "print('numpy.ma' in sys.modules)\n"
    lines = _fresh_interpreter(_BLOCK_SCIPY + "import numpy\n" + has_ma + code + has_ma)
    assert lines[-2:] == ["imported" if argv is None else "exit 0", lines[0]], lines


@pytest.mark.parametrize(
    ("argv", "loads_numpy"),
    [
        (None, False),
        ([*ECS, "with"], False),
        ([*ECS, "without"], False),
        (NOON_POINT, False),
        ([*ECS, "with", "--oracle"], True),
        (["sweep", "--eta", "0.9", "--output", "SWEEP"], True),
        (["crossings", "--eta", "0.9"], True),
        (["verify", "--grid", "single"], True),
    ],
    ids=["import", "point-ecs-with", "point-ecs-without", "point-noon",
         "oracle-ecs-with", "sweep", "crossings", "verify"],
)
def test_closed_form_paths_import_no_numpy(tmp_path, argv, loads_numpy):
    # the package namespace is lazy and the closed forms run on math alone, so the
    # benchmark's set-up code and `point` without --oracle never load numpy; the
    # commands that build arrays load it, which shows that the probe sees it
    code = "import sys\nimport phasefisher\nphasefisher.qfi_ecs_ref(1.0, 0.9)\n"
    if argv is not None:
        argv = [str(tmp_path / "sweep.csv") if a == "SWEEP" else a for a in argv]
        code += f"from phasefisher.cli import main\nprint('exit', main({argv!r}))\n"
    lines = _fresh_interpreter(code + "print('numpy' in sys.modules)\n")
    assert lines[-1] == str(loads_numpy), lines
    assert argv is None or lines[-2] == "exit 0", lines


def test_closed_form_points_import_no_dataclasses_typing_or_numpy():
    # -S runs no site hook, so no .pth file preloads a module and the probe sees what the
    # package itself imports: its records are namedtuples, and TYPE_CHECKING is a constant
    points = [[*ECS, "with"], [*ECS, "without"], NOON_POINT]
    code = (
        "import sys\nimport phasefisher\nphasefisher.qfi_ecs_ref(1.0, 0.9)\n"
        "from phasefisher.cli import main\n"
        f"print('exit', *[main(argv) for argv in {points!r}])\n"
        "print(sorted({'dataclasses', 'inspect', 'typing', 'numpy'} & sys.modules.keys()))\n"
    )
    lines = _fresh_interpreter(code, "-S")
    assert lines[-2:] == ["exit 0 0 0", "[]"], lines


def test_scipy_blocker_blocks_scipy():
    code = _BLOCK_SCIPY + "try:\n    import scipy.linalg\nexcept ImportError as exc:\n    print(exc)\n"
    assert _fresh_interpreter(code)[-1:] == ["scipy is not installed"]


def test_depends_on_numpy_alone():
    tomllib = pytest.importorskip("tomllib")
    with (SRC.parent / "pyproject.toml").open("rb") as fh:
        assert tomllib.load(fh)["project"]["dependencies"] == ["numpy>=1.24"]
