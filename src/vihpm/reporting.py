"""Error tables against reference solutions and CSV emission."""

from __future__ import annotations

import math
from typing import IO, Sequence

from .engine import NonFiniteIterateError
from .problems import ProblemSpec
from .series import Series, _checked, _numbers, _Value, evaluate
from .solver import SolveResult

__all__ = [
    "ErrorRow",
    "ErrorTable",
    "error_table",
    "emit_csv",
    "emit_series_csv",
]


class ErrorRow(_Value):
    """One grid point: ``x``, the reference value ``exact`` (None if not
    known), the series value ``approx`` and the defect ``abs_error``."""

    __slots__ = _fields = ("x", "exact", "approx", "abs_error")


class ErrorTable(_Value):
    """``rows`` on the grid; ``max_abs_error`` is None without a reference."""

    __slots__ = _fields = ("rows", "max_abs_error")


def error_table(
    spec: ProblemSpec, result: SolveResult, grid: Sequence[float]
) -> ErrorTable:
    """Tabulate the solved series against the reference on a grid.

    Without a reference solution the exact and error columns stay empty.
    The grid must be a non-empty sequence of numbers, finite and strictly
    increasing so emitted tables read naturally.  Raises
    :class:`~vihpm.engine.NonFiniteIterateError` when a value in the table
    is not finite, a reference that overflows included.
    """
    grid = _checked(_numbers, "grid", grid)
    if not grid:
        raise ValueError("grid must be non-empty")
    if not all(map(math.isfinite, grid)) or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be finite and strictly increasing")
    rows = []
    worst: float | None = None
    for x in grid:
        approx = evaluate(result.solution, x)
        if spec.exact is not None:
            try:
                exact = spec.exact.evaluate(x)
            except OverflowError:
                exact = math.inf
            err = abs(approx - exact)
            worst = err if worst is None else max(worst, err)
        else:
            exact = None
            err = None
        # a finite error needs a finite approx and a finite exact value
        if not math.isfinite(approx if err is None else err):
            raise NonFiniteIterateError(f"the error table is non-finite at x = {x!r}")
        rows.append(ErrorRow(x=x, exact=exact, approx=approx, abs_error=err))
    return ErrorTable(rows=tuple(rows), max_abs_error=worst)


def _fmt(value: float | None) -> str:
    # 17 significant digits round-trip doubles exactly
    return "" if value is None else format(value, ".17g")


def emit_csv(table: ErrorTable, destination: IO[str]) -> None:
    """Write the table as CSV; absent values become empty fields."""
    destination.write("x,exact,approx,abs_error\n")
    for row in table.rows:
        destination.write(
            f"{_fmt(row.x)},{_fmt(row.exact)},{_fmt(row.approx)},"
            f"{_fmt(row.abs_error)}\n"
        )


def emit_series_csv(solution: Series, destination: IO[str]) -> None:
    """Write the solution coefficients as a degree,coefficient CSV."""
    destination.write("degree,coefficient\n")
    for degree, c in enumerate(solution.coeffs):
        destination.write(f"{degree},{_fmt(c)}\n")
