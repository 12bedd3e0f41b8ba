"""Command-line surface: sources, flags, exit codes, emitted files."""

import math
import subprocess
import sys

import pytest

from vihpm.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolveCommand:
    def test_builtin_one_converges(self, capsys):
        code, out, err = run_cli(capsys, "solve", "--builtin", "1")
        assert code == 0
        assert "solved constants" in out
        assert "coefficient of x^4" in out
        assert "max abs error" in out
        assert "newton iterations: 2" in out

    def test_problem_file_source(self, capsys, tmp_path):
        e = math.e
        lines = [
            "order 7",
            "domain 0 1",
            "term 1 -35 -12 -2",
            "term 0 -1 ; 0",
            "bc 0 0 0",
            "bc 1 0 0",
            "bc 0 1 1",
            f"bc 1 1 {-e!r}",
            "bc 0 2 0",
            f"bc 1 2 {-4 * e!r}",
            "bc 0 3 -3",
            "exact 1 0 1 -1",
        ]
        path = tmp_path / "problem.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "solve", str(path))
        assert code == 0
        assert "-0.333333" in out

    def test_emit_files(self, capsys, tmp_path):
        csv_path = tmp_path / "table.csv"
        series_path = tmp_path / "series.csv"
        code, _, _ = run_cli(
            capsys,
            "solve",
            "--builtin",
            "2",
            "--emit-csv",
            str(csv_path),
            "--emit-series",
            str(series_path),
        )
        assert code == 0
        table_lines = csv_path.read_text().strip().split("\n")
        assert table_lines[0] == "x,exact,approx,abs_error"
        assert len(table_lines) == 12
        series_lines = series_path.read_text().strip().split("\n")
        assert series_lines[0] == "degree,coefficient"
        # one correction raises the degree from 12 to 19
        assert len(series_lines) == 21

    def test_grid_step(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--builtin", "1", "--grid-step", "0.25"
        )
        assert code == 0
        assert " 0.250 " in out
        assert " 0.750 " in out

    def test_iterations_override(self, capsys, tmp_path):
        series_path = tmp_path / "series.csv"
        code, _, _ = run_cli(
            capsys,
            "solve",
            "--builtin",
            "1",
            "--iterations",
            "2",
            "--emit-series",
            str(series_path),
        )
        assert code == 0
        # two corrections: degree 12 + 2*7
        assert len(series_path.read_text().strip().split("\n")) == 28

    def test_truncation_override(self, capsys, tmp_path):
        series_path = tmp_path / "series.csv"
        code, _, _ = run_cli(
            capsys,
            "solve",
            "--builtin",
            "1",
            "--truncation",
            "14",
            "--emit-series",
            str(series_path),
        )
        assert code == 0
        assert len(series_path.read_text().strip().split("\n")) == 23


class TestConvergenceCommand:
    def test_reports_contraction(self, capsys):
        code, out, _ = run_cli(capsys, "convergence", "--builtin", "3")
        assert code == 0
        assert "gamma_max" in out
        assert "contraction_ok: True" in out
        assert "banach_bound_ok: True" in out

    def test_depth_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "convergence", "--builtin", "1", "--depth", "4"
        )
        assert code == 0
        assert "delta_3" in out


class TestErrorPaths:
    def test_no_source(self, capsys):
        code, _, err = run_cli(capsys, "solve")
        assert code == 1
        assert "exactly one problem source" in err

    def test_both_sources(self, capsys, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("order 1\ndomain 0 1\nbc 0 0 1\n")
        code, _, err = run_cli(capsys, "solve", str(path), "--builtin", "1")
        assert code == 1

    def test_unknown_builtin(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--builtin", "9")
        assert code == 1
        assert "1..4" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "solve", "/nonexistent/problem.txt")
        assert code == 1

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("order 7\ndomain 0 1\nterm oops\n")
        code, _, err = run_cli(capsys, "solve", str(path))
        assert code == 1
        assert "line 3" in err

    def test_validation_failure(self, capsys, tmp_path):
        path = tmp_path / "incomplete.txt"
        path.write_text("order 7\ndomain 0 1\nbc 0 0 0\n")
        code, _, err = run_cli(capsys, "solve", str(path))
        assert code == 1
        assert "expected 7 boundary conditions" in err

    def test_singular_jacobian_exit_code(self, capsys, tmp_path):
        # slope-only conditions leave the constant coefficient unobservable
        path = tmp_path / "singular.txt"
        path.write_text(
            "order 2\ndomain 0 1\nbc 0.5 1 1\nbc 1 1 2\n", encoding="utf-8"
        )
        code, _, err = run_cli(capsys, "solve", str(path))
        assert code == 2
        assert "solver failure" in err

    @pytest.mark.parametrize("second_bc", ["bc 0 1 0", "bc 1 0 0"])
    def test_non_finite_iterate_is_solver_failure(self, capsys, tmp_path, second_bc):
        # u'' = 1e300 u^2 with u(0) = 1e10 overflows in the first correction,
        # both as an initial-value problem and with a shooting condition
        path = tmp_path / "overflow.txt"
        path.write_text(
            "order 2\ndomain 0 1\nterm 0.0 1e300 ; 0 0\nbc 0 0 1e10\n"
            f"{second_bc}\n",
            encoding="utf-8",
        )
        code, out, err = run_cli(capsys, "solve", str(path))
        assert code == 2
        assert "solver failure" in err
        assert "non-finite" in err
        assert out == ""

    def test_non_finite_boundary_value(self, capsys, tmp_path):
        path = tmp_path / "nan_bc.txt"
        path.write_text("order 2\ndomain 0 1\nbc 0 0 0\nbc 1 0 nan\n")
        code, out, err = run_cli(capsys, "solve", str(path))
        assert code == 1
        assert "boundary condition value must be finite" in err
        assert out == ""

    def test_bad_grid_step(self, capsys):
        code, _, err = run_cli(
            capsys, "solve", "--builtin", "1", "--grid-step", "-0.1"
        )
        assert code == 1


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "vihpm", "solve", "--builtin", "1"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        assert "max abs error" in proc.stdout
