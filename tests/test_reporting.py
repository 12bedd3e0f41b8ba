"""Error tables, CSV emission, and the published per-row error profile."""

import io
import math

import pytest

from vihpm import reporting
from vihpm.engine import NonFiniteIterateError
from vihpm.problems import (
    BoundaryCondition,
    ProblemSpec,
    builtin,
)
from vihpm.reporting import (
    ErrorTable,
    emit_csv,
    emit_series_csv,
    error_table,
)
from vihpm.series import ExpPoly, make_series
from vihpm.solver import SolveResult, solve

GRID = tuple(i / 10 for i in range(11))

# published per-row absolute errors for the third benchmark (interior points)
THIRD_BENCHMARK_ROWS = {
    0.1: 5.28944e-12,
    0.2: 6.44606e-11,
    0.3: 2.38427e-10,
    0.4: 5.20559e-10,
    0.5: 8.11431e-10,
    0.6: 9.55209e-10,
    0.7: 8.30543e-10,
    0.8: 4.67351e-10,
    0.9: 1.04882e-10,
}


def fake_result(solution):
    return SolveResult(
        constants=(),
        solution=solution,
        newton_iterations=0,
        bc_residual_norm=0.0,
        converged=True,
    )


class TestErrorTable:
    def test_structure_second_builtin(self):
        spec = builtin(2)
        table = error_table(spec, solve(spec), GRID)
        assert len(table.rows) == 11
        xs = [row.x for row in table.rows]
        assert xs == sorted(xs)
        assert xs[0] == 0.0 and xs[-1] == 1.0
        for row in table.rows:
            assert row.abs_error == abs(row.approx - row.exact)
        assert table.max_abs_error == max(r.abs_error for r in table.rows)

    def test_error_zero_at_enforced_origin_value(self):
        # a value condition pinned at the origin is reproduced exactly
        for n in (1, 2, 3):
            spec = builtin(n)
            table = error_table(spec, solve(spec), GRID)
            assert table.rows[0].abs_error == 0.0, n

    def test_third_builtin_rows_track_published_profile(self):
        """Interior rows stay within a factor 50 of the published table.

        Endpoint rows are excluded: both are enforced conditions, met to
        solver tolerance, far below the published rounded printouts.
        """
        spec = builtin(3)
        table = error_table(spec, solve(spec), GRID)
        errs = {round(row.x, 1): row.abs_error for row in table.rows}
        for x, published in THIRD_BENCHMARK_ROWS.items():
            ratio = errs[x] / published
            assert 1.0 / 50.0 <= ratio <= 50.0, (x, errs[x], published)

    def test_grid_must_increase(self):
        spec = builtin(1)
        result = solve(spec)
        with pytest.raises(ValueError, match="increasing"):
            error_table(spec, result, (0.0, 0.2, 0.1))

    def test_empty_grid_is_the_callers_error(self):
        # an empty table would read as one without a reference
        spec = builtin(1)
        with pytest.raises(ValueError, match="^grid must be non-empty$"):
            error_table(spec, solve(spec), ())

    @pytest.mark.parametrize(
        "grid",
        [(0.0, math.nan), (0.0, math.inf), (-math.inf, 0.0), (math.nan,)],
        ids=["nan", "inf", "-inf", "nan-alone"],
    )
    def test_non_finite_grid_point_is_the_callers_error(self, monkeypatch, grid):
        # a ValueError (exit 1), not a solver failure, and before any value
        spec = builtin(1)
        result = solve(spec)
        monkeypatch.setattr(reporting, "evaluate", lambda *args: pytest.fail("ran"))
        with pytest.raises(ValueError, match="grid must be finite"):
            error_table(spec, result, grid)

    @pytest.mark.parametrize(
        "grid", [(0.0, None), ("a", 1.0), 1.0], ids=["none", "text", "bare"]
    )
    def test_non_numeric_grid_names_the_field(self, monkeypatch, grid):
        spec = builtin(1)
        result = solve(spec)
        monkeypatch.setattr(reporting, "evaluate", lambda *args: pytest.fail("ran"))
        with pytest.raises(ValueError, match="^grid must be a sequence of numbers, got "):
            error_table(spec, result, grid)

    def test_overflowing_reference_is_non_finite(self):
        spec = builtin(1)
        result = solve(spec)
        with pytest.raises(
            NonFiniteIterateError, match="^the error table is non-finite at x = 1000.0$"
        ):
            error_table(spec, result, (0.5, 1000.0))

    def test_without_reference_columns_empty(self):
        spec = ProblemSpec(
            order=1,
            domain_end=1.0,
            terms=(),
            bcs=(BoundaryCondition(0.0, 0, 1.0),),
        )
        table = error_table(spec, solve(spec), (0.0, 0.5, 1.0))
        assert all(row.exact is None for row in table.rows)
        assert all(row.abs_error is None for row in table.rows)
        assert table.max_abs_error is None

    def test_exact_match_gives_zero(self):
        # solution identical to the reference polynomial
        spec = ProblemSpec(
            order=1,
            domain_end=1.0,
            terms=(),
            bcs=(BoundaryCondition(0.0, 0, 1.0),),
            exact=ExpPoly.from_terms([(0.0, (1.0, 2.0))]),
        )
        result = fake_result(make_series([1.0, 2.0], 5))
        table = error_table(spec, result, (0.0, 0.25, 1.0))
        assert table.max_abs_error == 0.0


class TestCsv:
    def test_header_and_row_count(self):
        spec = builtin(2)
        table = error_table(spec, solve(spec), GRID)
        out = io.StringIO()
        emit_csv(table, out)
        lines = out.getvalue().strip().split("\n")
        assert lines[0] == "x,exact,approx,abs_error"
        assert len(lines) == 12

    def test_round_trip_is_bit_exact(self):
        spec = builtin(3)
        table = error_table(spec, solve(spec), GRID)
        out = io.StringIO()
        emit_csv(table, out)
        for line, row in zip(out.getvalue().splitlines()[1:], table.rows):
            x, exact, approx, err = (float(f) for f in line.split(","))
            assert (x, exact, approx, err) == (
                row.x,
                row.exact,
                row.approx,
                row.abs_error,
            )

    def test_empty_grid_header_only(self):
        table = ErrorTable(rows=(), max_abs_error=None)
        out = io.StringIO()
        emit_csv(table, out)
        assert out.getvalue() == "x,exact,approx,abs_error\n"

    def test_absent_reference_gives_empty_fields(self):
        spec = ProblemSpec(
            order=1,
            domain_end=1.0,
            terms=(),
            bcs=(BoundaryCondition(0.0, 0, 1.0),),
        )
        table = error_table(spec, solve(spec), (0.0, 1.0))
        out = io.StringIO()
        emit_csv(table, out)
        row = out.getvalue().splitlines()[1]
        fields = row.split(",")
        assert fields[1] == "" and fields[3] == ""

    def test_series_csv(self):
        out = io.StringIO()
        emit_series_csv(make_series([1.0, -0.5], 3), out)
        lines = out.getvalue().strip().split("\n")
        assert lines[0] == "degree,coefficient"
        assert lines[1] == "0,1"
        assert lines[2] == "1,-0.5"
        assert len(lines) == 5
