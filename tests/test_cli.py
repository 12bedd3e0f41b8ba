"""Command-line surface: sources, flags, exit codes, emitted files."""

import argparse
import math
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from vihpm import cli, engine, kernel, series, solver
from vihpm.cli import MAX_GRID_POINTS, main
from vihpm.diagnostics import default_grid
from vihpm.problems import BoundaryCondition, ProblemSpec

from ring_helpers import count_computations, generated_problems

LINEAR_COEFFICIENT = Path(__file__).parent / "data" / "linear_coefficient.txt"


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
        assert "newton iterations: 1" in out

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
        # u' = u, u(0) = 1: every condition is at the origin
        path.write_text("order 1\ndomain 0 1\nterm 0 1 ; 0\nbc 0 0 1\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "solve", str(path))
        assert code == 0
        assert out.startswith("no free constants (all conditions at the origin)\n")

    def test_byte_order_mark_is_ignored(self, capsys, tmp_path):
        text = b"order 1\ndomain 0 1\nterm 0 1 ; 0\nbc 0 0 1\nexact 1 1\n"
        plain = tmp_path / "plain.txt"
        plain.write_bytes(text)
        marked = tmp_path / "marked.txt"
        marked.write_bytes(b"\xef\xbb\xbf" + text)
        expected = run_cli(capsys, "solve", str(plain))
        assert expected[0] == 0
        assert run_cli(capsys, "solve", str(marked)) == expected

    @pytest.mark.parametrize("n", ["1", "2", "3", "4"])
    def test_emit_files(self, capsys, tmp_path, n):
        # the CSV of README's "Reproducing the benchmark tables" holds the
        # printed table's values
        csv_path = tmp_path / "table.csv"
        series_path = tmp_path / "series.csv"
        code, out, _ = run_cli(
            capsys,
            "solve",
            "--builtin",
            n,
            "--emit-csv",
            str(csv_path),
            "--emit-series",
            str(series_path),
        )
        assert code == 0
        header, *rows = csv_path.read_text().splitlines()
        assert header == "x,exact,approx,abs_error"
        printed = out.split("abs_error\n")[1].splitlines()[:-1]
        assert len(rows) == len(printed) == 11
        for row, line in zip(rows, printed):
            x, exact, approx, abs_error = row.split(",")
            shown_x, shown_exact, shown_approx, _ = line.split()
            assert format(float(x), ".3f") == shown_x
            # 17 significant digits both ways, so each reads back as the other
            for written, shown in ((exact, shown_exact), (approx, shown_approx)):
                assert format(float(shown), ".17g") == written
                assert format(float(written), ".16e") == shown
            assert float(abs_error) == abs(float(approx) - float(exact))
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
        # 0.3 does not divide [0, 1]: the grid takes its multiples up to 0.9
        code, out, _ = run_cli(capsys, "solve", "--builtin", "1", "--grid-step", "0.3")
        assert code == 0
        rows = out.split("abs_error\n")[1].splitlines()[:-1]
        assert [row.split()[0] for row in rows] == ["0.000", "0.300", "0.600", "0.900"]

    def test_grid_step_ends_at_the_domain_end(self, capsys, tmp_path):
        # 3 * 0.1 / 3 is one ulp past 0.1, where this reference overflows
        path = tmp_path / "edge.txt"
        path.write_text(
            "order 1\ndomain 0 0.1\nterm 0.0 1.0\nbc 0.0 0 0.0\n"
            "exact 7097.827128933839 1e-300\n",
            encoding="utf-8",
        )
        code, out, _ = run_cli(
            capsys, "solve", str(path), "--grid-step", "0.03333333333333333"
        )
        assert code == 0
        rows = out.split("abs_error\n")[1].splitlines()[:-1]
        assert rows[-1].split()[0] == "0.100"

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

    def test_parser_built_once(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli._build_parser.cache_clear()
        run_cli(capsys, "solve", "--builtin", "1")
        per_call = len(built)
        assert per_call > 0
        cli._build_parser.cache_clear()
        built.clear()
        run_cli(capsys, "solve", "--builtin", "1")
        run_cli(capsys, "convergence", "--builtin", "1")
        run_cli(capsys, "solve", "--builtin", "2")
        assert len(built) == per_call


class TestGrid:
    def test_grid_runs_from_zero_to_the_domain_end(self):
        spec = ProblemSpec(
            order=1, domain_end=0.7, terms=(), bcs=(BoundaryCondition(0.0, 0, 1.0),)
        )
        # 0.7 * 10 / 10 and, for n = 3, 3 * 0.1 / 3 are one ulp past the end
        grids = [(0.7, default_grid(spec))]
        for end in (0.1, 0.7, 1.0, 3.3, 19.9):
            for n in range(2, 40):
                grid = cli._make_grid(end, end / n)
                assert len(grid) == n + 1
                grids.append((end, grid))
        for end, grid in grids:
            assert grid[0] == 0.0 and grid[-1] == end
            assert all(a < b for a, b in zip(grid, grid[1:]))

    def test_at_most_max_grid_points(self):
        assert len(cli._make_grid(MAX_GRID_POINTS - 1.0, 1.0)) == MAX_GRID_POINTS
        with pytest.raises(cli.InvalidProblemError, match=f"over {MAX_GRID_POINTS} points"):
            cli._make_grid(float(MAX_GRID_POINTS), 1.0)


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

    @pytest.mark.parametrize(
        "truncation, iterations, depth",
        [
            ("30", "6", "4"), ("30", "3", "3"), ("30", "3", "2"),
            ("12", "1", "6"), ("30", "3", "4"),
        ],
    )
    def test_runs_only_the_corrections_solve_did_not(
        self, capsys, monkeypatch, truncation, iterations, depth
    ):
        corrections = []
        original_correct_once, original_solve = engine.correct_once, cli.solve

        def counted_correct_once(v, spec):
            corrections.append(v.truncation)
            return original_correct_once(v, spec)

        def marked_solve(spec):
            result = original_solve(spec)
            corrections.append("solved")
            return result

        monkeypatch.setattr(engine, "correct_once", counted_correct_once)
        monkeypatch.setattr(cli, "solve", marked_solve)
        code, out, _ = run_cli(
            capsys, "convergence", "--builtin", "2", "--depth", depth,
            "--truncation", truncation, "--iterations", iterations,
        )
        assert code == 0 and f"delta_{int(depth) - 1}:" in out
        after = corrections[corrections.index("solved") + 1:]
        assert len(after) == max(int(depth) - int(iterations), 0)
        # each continues from the ring solve's last iterate reached
        assert after == [int(truncation) + 7 * k for k in range(int(iterations), int(depth))]

    @pytest.mark.parametrize(
        "truncation, iterations, depth, past_solve",
        [("12", "1", "6", [12 + 5 * 7]), ("30", "3", "2", []), ("30", "3", "3", [])],
    )
    def test_corrections_past_solve_expand_each_coefficient_once_more(
        self, capsys, monkeypatch, truncation, iterations, depth, past_solve
    ):
        logs, at_solve = [], []
        original_builtin, original_solve = cli.builtin, cli.solve

        def counted_builtin(n):
            spec = original_builtin(n)
            logs.extend(count_computations(term.coeff) for term in spec.terms)
            return spec

        def marked_solve(spec):
            result = original_solve(spec)
            at_solve.extend(list(log) for log in logs)
            return result

        monkeypatch.setattr(cli, "builtin", counted_builtin)
        monkeypatch.setattr(cli, "solve", marked_solve)
        code, out, _ = run_cli(
            capsys, "convergence", "--builtin", "2", "--depth", depth,
            "--truncation", truncation, "--iterations", iterations,
        )
        assert code == 0 and f"delta_{int(depth) - 1}:" in out
        # solve computes at W + (k-1)m; a deeper report once more, at
        # W + (depth-1)m, not once per ring; a shallower one only slices
        top = int(truncation) + (int(iterations) - 1) * 7
        assert at_solve == [[top]]
        assert logs == [[top] + past_solve]

    def test_overflowing_bound_power_is_reported(self, capsys, tmp_path):
        path = tmp_path / "overflow.txt"
        path.write_text(
            "order 2\ndomain 0 1\ntruncation 4\niterations 1\n"
            "term 0.0 1e160 ; 1\nterm 0.0 1e-300\nbc 0 0 1\nbc 0 1 0\n",
            encoding="utf-8",
        )
        code, out, err = run_cli(capsys, "convergence", str(path), "--depth", "4")
        assert (code, err) == (0, "")
        assert out == (
            "correction sup-norms:\n"
            "  delta_0: 0.000000e+00\n"
            "  delta_1: 0.000000e+00\n"
            "  delta_2: 4.166667e+18\n"
            "  delta_3: 8.333333e+177\n"
            "contraction ratio estimates:\n"
            "  gamma_0: 2.000000e+159\n"
            "gamma_max: 2.000000e+159\n"
            "contraction_ok: False\n"
            "banach_bound_ok: False\n"
            "fixed_point_reached: True\n"
        )

    def test_output_is_written_once(self, capsys, monkeypatch):
        writes = []
        monkeypatch.setattr(cli.sys.stdout, "write", writes.append)
        for command in (["solve"], ["convergence", "--depth", "4"]):
            writes.clear()
            assert main([*command, "--builtin", "4"]) == 0
            assert len(writes) == 1 and writes[0].endswith("\n")


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

    def test_file_that_is_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "latin.txt"
        path.write_bytes(b"order 1\ndomain 0 1\n\xff\xfe bc 0 0 1\n")
        code, out, err = run_cli(capsys, "solve", str(path))
        assert code == 1
        assert out == ""
        assert err == (
            "error: 'utf-8' codec can't decode byte 0xff in position 19: invalid start byte\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [("solve", "a\0b"), ("solve", "--builtin", "1", "--emit-csv", "a\0b")],
        ids=["problem-file", "output"],
    )
    def test_path_with_a_nul_byte(self, capsys, no_solve, argv):
        # only reachable in-process: an argv string of a process holds no NUL
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == "error: embedded null byte\n"

    def test_value_error_inside_solve_is_not_bad_input(self, capsys, monkeypatch):
        # a ValueError that is not an InvalidProblemError is a defect
        def broken(spec):
            raise ValueError("a defect inside solve")

        monkeypatch.setattr(cli, "solve", broken)
        with pytest.raises(ValueError, match="^a defect inside solve$"):
            main(["solve", "--builtin", "1"])
        assert capsys.readouterr() == ("", "")

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

    def test_non_finite_domain_reported_before_grid(self, capsys, tmp_path):
        path = tmp_path / "inf_domain.txt"
        path.write_text("order 1\ndomain 0 inf\nbc 0 0 1\n")
        code, out, err = run_cli(capsys, "solve", str(path))
        assert code == 1
        assert err == "error: domain_end must be finite, got inf\n"
        assert out == ""

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

    @pytest.mark.parametrize(
        "problem",
        [
            # 1e308 u^2 fits at u = 1, its tangent 2e308 u du does not
            "term 0.0 1e308 ; 0 0\nbc 0 0 1\nbc 1 0 0\n",
            # u = c x with u(1e-299) = 1e10: the Newton step is c = 1e309
            "bc 0 0 0\nbc 1e-299 0 1e10\n",
        ],
        ids=["tangent", "newton-step"],
    )
    def test_non_finite_newton_quantity_is_solver_failure(
        self, capsys, tmp_path, problem
    ):
        path = tmp_path / "overflow.txt"
        path.write_text("order 2\ndomain 0 1\n" + problem, encoding="utf-8")
        code, out, err = run_cli(capsys, "solve", str(path))
        assert code == 2
        assert "solver failure" in err
        assert "non-finite" in err
        assert out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ("convergence", "FILE", "--depth", "4"),
            ("solve", "FILE", "--iterations", "3", "--grid-step", "1e299"),
        ],
        ids=["convergence", "solve"],
    )
    def test_non_finite_grid_value_is_solver_failure(self, capsys, tmp_path, argv):
        # u' = -u: every iterate is finite, but at x near 1e300 its values
        # and the gaps between them overflow
        path = tmp_path / "wide.txt"
        path.write_text("order 1\ndomain 0 1e300\nterm 0.0 -1.0 ; 0\nbc 0 0 1\n")
        argv = [str(path) if a == "FILE" else a for a in argv]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert "solver failure" in err
        assert "non-finite" in err
        assert out == ""

    @pytest.mark.parametrize(
        "residuals", [(0.0, math.nan), (math.nan, 0.0), (0.0, math.inf)]
    )
    @pytest.mark.parametrize("command", ["solve", "convergence"])
    def test_non_finite_boundary_residual_is_solver_failure(
        self, capsys, monkeypatch, command, residuals
    ):
        # a NaN after the first residual would vanish from max()
        monkeypatch.setattr(solver, "_bc_residuals_of", lambda solution, spec: residuals)
        code, out, err = run_cli(capsys, command, "--builtin", "1")
        assert code == 2
        assert err.startswith("solver failure: ")
        assert "non-finite" in err
        assert out == ""

    def test_non_finite_boundary_value(self, capsys, tmp_path):
        path = tmp_path / "nan_bc.txt"
        path.write_text("order 2\ndomain 0 1\nbc 0 0 0\nbc 1 0 nan\n")
        code, out, err = run_cli(capsys, "solve", str(path))
        assert code == 1
        assert err == "error: line 4: value must be finite, got nan\n"
        assert out == ""

    @pytest.mark.parametrize(
        "step",
        ["-0.1", "nan", "inf", repr(1.0 / MAX_GRID_POINTS)],
        ids=["negative", "nan", "inf", "past-cap"],
    )
    def test_bad_grid_step(self, capsys, step):
        # rejected before solving: nothing of the solution is printed
        code, out, err = run_cli(
            capsys, "solve", "--builtin", "1", "--grid-step", step
        )
        assert code == 1
        assert "grid step" in err
        assert out == ""

    @pytest.fixture
    def no_solve(self, monkeypatch):
        def fail(spec):
            raise AssertionError("solve() ran on a request that should be rejected")

        monkeypatch.setattr(cli, "solve", fail)

    @pytest.mark.parametrize("depth", ["1", "-3"])
    def test_shallow_depth_rejected_before_solving(self, capsys, no_solve, depth):
        code, out, err = run_cli(
            capsys, "convergence", "--builtin", "1", "--depth", depth
        )
        assert code == 1
        assert "need at least two corrections" in err
        assert out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ("solve", "--builtin", "1", "--truncation", "1000000"),
            ("solve", "FILE"),
            ("convergence", "--builtin", "1", "--depth", "1000000"),
        ],
        ids=["truncation", "file-iterations", "depth"],
    )
    def test_series_degree_cap(self, capsys, tmp_path, no_solve, argv):
        path = tmp_path / "deep.txt"
        path.write_text("order 1\ndomain 0 1\niterations 1000\nbc 0 0 1\n")
        argv = [str(path) if a == "FILE" else a for a in argv]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert "series degree" in err
        assert out == ""

    def test_overflowing_exact_solution_rejected_before_solving(
        self, capsys, tmp_path, no_solve
    ):
        # exp(1.0 * 1000) is beyond float range on the error table's grid
        path = tmp_path / "overflow_exact.txt"
        path.write_text(
            "order 1\ndomain 0 1000\nterm 0.0 1.0 ; 0\nbc 0 0 1\nexact 1.0 1.0\n"
        )
        code, out, err = run_cli(capsys, "solve", str(path))
        assert code == 1
        assert "exact term 'exact 1.0 1.0' overflows" in err
        assert out == ""

    def test_overflowing_exact_polynomial_rejected_before_solving(
        self, capsys, tmp_path, no_solve
    ):
        # exp(709) stays in range but exp(709) * 1e300 does not, so the
        # error table would print nan for the sum of the two terms
        path = tmp_path / "overflow_poly.txt"
        path.write_text(
            "order 1\ndomain 0 1\nterm 0.0 1.0 ; 0\nbc 0 0 1\n"
            "exact 709 1e300\nexact 709 -1e300\n"
        )
        code, out, err = run_cli(capsys, "solve", str(path))
        assert code == 1
        assert "exact term 'exact 709.0 1e+300' overflows" in err
        assert "exact term 'exact 709.0 -1e+300' overflows" in err
        assert out == ""

    def test_affine_problem_with_large_boundary_residual(self, capsys, tmp_path):
        # u'' = exp(100 x): the residual at zero constants is about 1e15, so
        # finite-difference steps of the slope vanish in its rounding
        path = tmp_path / "large_residual.txt"
        path.write_text("order 2\ndomain 0 1\nterm 100 1.0\nbc 0 0 0\nbc 1 0 1\n")
        code, out, _ = run_cli(capsys, "solve", str(path))
        assert code == 0
        assert "newton iterations: 1" in out

    @pytest.mark.parametrize("command", ["solve", "convergence"])
    def test_non_convergence_exit_code(self, capsys, monkeypatch, command):
        monkeypatch.setattr(solver, "NEWTON_MAX_ITERATIONS", 0)
        code, _, err = run_cli(capsys, command, "--builtin", "1")
        assert code == 2
        assert "did not converge" in err
        assert "after 0 iterations" in err

    @pytest.mark.parametrize("flag", ["--emit-csv", "--emit-series"])
    def test_unwritable_output_file(self, capsys, tmp_path, flag):
        # written before the first print, so the failure leaves stdout empty
        path = tmp_path / "missing" / "out.csv"
        code, out, err = run_cli(capsys, "solve", "--builtin", "1", flag, str(path))
        assert code == 1
        assert "error:" in err
        assert out == ""

    def test_unwritable_series_file_leaves_no_table(self, capsys, tmp_path):
        # no path is replaced before every output is written
        table_path = tmp_path / "good.csv"
        table_path.write_text("an earlier table\n")
        series_path = tmp_path / "missing" / "series.csv"
        code, out, err = run_cli(
            capsys,
            "solve",
            "--builtin",
            "1",
            "--emit-csv",
            str(table_path),
            "--emit-series",
            str(series_path),
        )
        assert code == 1
        assert "error:" in err
        assert out == ""
        assert table_path.read_text() == "an earlier table\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["good.csv"]

    def test_stale_temporary_file_of_a_killed_run_is_left_alone(
        self, capsys, tmp_path, monkeypatch
    ):
        # a run killed between write and rename leaves its temporary file;
        # the pid repeats, so a later run must pick another name
        table_path = tmp_path / "good.csv"
        table_path.write_text("an earlier table\n")
        with monkeypatch.context() as m:
            def killed(*_):
                raise OSError("killed before the rename")
            m.setattr(cli.os, "replace", killed)
            m.setattr(cli.os, "remove", lambda _: None)
            code, _, _ = run_cli(capsys, "solve", "--builtin", "1", "--emit-csv", str(table_path))
        assert code == 1
        (stale,) = [p for p in tmp_path.iterdir() if p.name != "good.csv"]
        assert stale.name.startswith(f".good.csv.{os.getpid()}.")
        stale_text = stale.read_text()
        previous = os.umask(0o027)
        try:
            code, _, err = run_cli(
                capsys, "solve", "--builtin", "1", "--emit-csv", str(table_path)
            )
        finally:
            os.umask(previous)
        assert code == 0, err
        assert table_path.read_text() == stale_text
        assert table_path.read_text().startswith("x,exact,approx,abs_error\n")
        assert stale.read_text() == stale_text
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["good.csv", stale.name])
        # the mode open(path, "w") gives a new file under this umask
        assert stat.S_IMODE(table_path.stat().st_mode) == 0o640

    @pytest.mark.parametrize("kind", ["directory", "pipe"])
    def test_non_file_output_rejected_before_solving(self, capsys, tmp_path, no_solve, kind):
        table_path = tmp_path / "good.csv"
        table_path.write_text("an earlier table\n")
        other = tmp_path / "other"
        if kind == "directory":
            other.mkdir()
        else:
            os.mkfifo(other)
        code, out, err = run_cli(
            capsys, "solve", "--builtin", "1", "--emit-csv", str(table_path),
            "--emit-series", str(other),
        )
        assert code == 1
        assert "something other than a file" in err
        assert out == ""
        assert table_path.read_text() == "an earlier table\n"

    @pytest.mark.parametrize("flag", ["--emit-csv", "--emit-series"])
    def test_empty_output_path_rejected_before_solving(
        self, capsys, tmp_path, monkeypatch, no_solve, flag
    ):
        # "" resolves to the working directory; it does not mean "no output"
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "solve", "--builtin", "1", flag, "")
        assert code == 1
        assert "something other than a file" in err
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    def test_outputs_replace_files_and_follow_links(self, capsys, tmp_path):
        table_path = tmp_path / "table.csv"
        table_path.write_text("an earlier table\n")
        series_path = tmp_path / "series.csv"
        link = tmp_path / "link.csv"
        link.symlink_to(series_path)
        code, _, _ = run_cli(
            capsys, "solve", "--builtin", "1", "--emit-csv", str(table_path),
            "--emit-series", str(link),
        )
        assert code == 0
        assert table_path.read_text().startswith("x,exact,approx,abs_error\n")
        assert link.is_symlink()
        assert series_path.read_text().startswith("degree,coefficient\n")
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["link.csv", "series.csv", "table.csv"]

    def test_one_path_for_both_outputs(self, capsys, tmp_path, no_solve):
        path = tmp_path / "out.csv"
        code, out, err = run_cli(
            capsys, "solve", "--builtin", "1", "--emit-csv", str(path),
            "--emit-series", str(tmp_path / "." / "out.csv"),
        )
        assert code == 1
        assert "same file" in err
        assert out == ""
        assert not path.exists()


    @pytest.mark.parametrize("link", [False, True], ids=["path", "link"])
    @pytest.mark.parametrize("flag", ["--emit-csv", "--emit-series"])
    def test_output_naming_the_problem_file_rejected_before_solving(
        self, capsys, tmp_path, no_solve, flag, link
    ):
        problem = tmp_path / "problem.txt"
        text = b"order 1\ndomain 0 1\nterm 0 1 ; 0\nbc 0 0 1\n"
        problem.write_bytes(text)
        output = problem
        if link:
            output = tmp_path / "link.csv"
            output.symlink_to(problem)
        code, out, err = run_cli(capsys, "solve", str(problem), flag, str(output))
        assert code == 1
        assert err == "error: an output path names the problem file\n"
        assert out == ""
        assert problem.read_bytes() == text
        assert output.resolve() == problem
        expected = ["link.csv", "problem.txt"] if link else ["problem.txt"]
        assert sorted(p.name for p in tmp_path.iterdir()) == expected


class TestArguments:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (("solve", "--builtin", "x"), "argument --builtin: invalid int value: 'x'"),
            (
                ("solve", "--builtin", "1", "--grid-step", "abc"),
                "argument --grid-step: invalid float value: 'abc'",
            ),
            (
                ("convergence", "--builtin", "1", "--depth", "1.5"),
                "argument --depth: invalid int value: '1.5'",
            ),
            (("solve", "--builtin", "1", "--bogus"), "unrecognized arguments: --bogus"),
            ((), "the following arguments are required: command"),
            (("frobnicate",), "argument command: invalid choice: 'frobnicate'"),
        ],
        ids=["builtin", "grid-step", "depth", "unknown-option", "no-command", "unknown-command"],
    )
    def test_bad_arguments_exit_1(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {message}")
        assert err.count("\n") == 1

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: vihpm")


class TestEntryPoint:
    """The exit-code contract at the process boundary, through ``python -m``."""

    @staticmethod
    def vihpm(*argv):
        return subprocess.run(
            [sys.executable, "-m", "vihpm", *argv],
            capture_output=True,
            text=True,
            timeout=60,
        )

    def test_module_invocation(self):
        proc = self.vihpm("solve", "--builtin", "1")
        assert proc.returncode == 0
        assert "max abs error" in proc.stdout

    def test_bad_argument_exits_1(self):
        proc = self.vihpm("solve", "--builtin", "x")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "error: argument --builtin: invalid int value: 'x'\n"

    def solve_file(self, tmp_path, lines):
        path = tmp_path / "problem.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return self.vihpm("solve", str(path))

    NON_FINITE_FILES = {
        "value": ["order 2", "domain 0 1", "bc 0 0 0", "bc 1 0 nan"],
        "domain_end": ["order 2", "domain 0 inf", "bc 0 0 0", "bc 1 0 1"],
        "rate": ["order 2", "domain 0 1", "term inf 1.0", "bc 0 0 0", "bc 1 0 1"],
    }

    @pytest.mark.parametrize("field", NON_FINITE_FILES)
    def test_non_finite_input_exits_1(self, tmp_path, field):
        # a number that is not finite is bad input wherever it stands
        proc = self.solve_file(tmp_path, self.NON_FINITE_FILES[field])
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert f"{field} must be finite" in proc.stderr

    def test_output_over_the_problem_file_exits_1(self, tmp_path):
        problem = tmp_path / "problem.txt"
        problem.write_bytes(LINEAR_COEFFICIENT.read_bytes())
        proc = self.vihpm("solve", str(problem), "--emit-csv", str(problem))
        assert proc.returncode == 1
        assert problem.read_bytes() == LINEAR_COEFFICIENT.read_bytes()

    def test_problem_file_with_a_byte_order_mark_solves(self, tmp_path):
        marked = tmp_path / "bom.txt"
        marked.write_bytes(b"\xef\xbb\xbf" + LINEAR_COEFFICIENT.read_bytes())
        assert self.vihpm("solve", str(marked)).returncode == 0

    def test_unconverged_solve_exits_2(self, tmp_path):
        # Newton stalls on [0, 3]; the constants it reached are printed
        # before the failure is reported
        proc = self.solve_file(tmp_path, [
            "order 2", "domain 0 3", "truncation 12", "iterations 2",
            "term 0.0 50.0 ; 0 0", "term 0.0 1.0", "bc 0 0 0", "bc 3 0 40",
        ])
        assert proc.returncode == 2
        assert proc.stdout.startswith("solved constants:\n")
        assert proc.stderr == (
            "solver did not converge: residual 5.119e+02 after 25 iterations\n"
        )

    def test_non_finite_iterate_exits_2(self, tmp_path):
        # the first correction of a forcing term of rate 1e308 overflows
        proc = self.solve_file(tmp_path, [
            "order 2", "domain 0 1", "term 1e308 1.0", "bc 0 0 0", "bc 1 0 1",
        ])
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "solver failure: correction 1 made the iterate non-finite\n"


class TestCachedTables:
    """``CACHE_SIZE`` bounds the ``lru_cache`` tables that depend only on a
    few integers; each must hold what a family pass needs."""

    TABLES = {
        "_falling_factorials": series._falling_factorials,
        "_kernel_weights": kernel._kernel_weights,
        "_picks": engine._picks,
        "_rests": engine._rests,
        "_seed": engine._seed,
    }

    def test_a_second_family_pass_misses_none(self, monkeypatch, tmp_path, capsys):
        # seed 1's family problems run twice through main in one process; a
        # table that evicts what the workload needs again misses on the
        # second pass
        argvs = []
        for problem in generated_problems(monkeypatch, 1):
            path = tmp_path / f"{problem.name}.txt"
            path.write_text(problem.text, encoding="utf-8")
            argvs.append(problem.argv(str(path)))
        misses = []
        for _ in range(2):
            for argv in argvs:
                main(argv)
                capsys.readouterr()
            misses.append({name: t.cache_info().misses for name, t in self.TABLES.items()})
        again = {name: misses[1][name] - misses[0][name] for name in self.TABLES}
        assert again == dict.fromkeys(self.TABLES, 0)
