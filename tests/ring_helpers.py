"""Series helpers and reference formulas that only the tests use, kept out
of the package."""

import math

from vihpm.series import Series, _trusted
from vihpm.solver import PIVOT_FLOOR, SingularJacobianError


def scale(f: Series, c: float) -> Series:
    """Multiply every coefficient by the finite scalar ``c``."""
    c = float(c)
    if not math.isfinite(c):
        raise ValueError("scale factor must be finite")
    return _trusted(tuple([c * a for a in f.coeffs]))


def reference_solve_dense(matrix: list[list[float]], rhs: list[float]) -> list[float]:
    """The solver's original Gaussian elimination with partial pivoting:
    the pivot picked by ``max(..., key=...)``, and every elimination
    updating the pivot column too."""
    n = len(rhs)
    a = [row[:] + [b] for row, b in zip(matrix, rhs)]
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: abs(a[r][col]))
        if abs(a[pivot_row][col]) < PIVOT_FLOOR:
            raise SingularJacobianError(
                f"Jacobian pivot below {PIVOT_FLOOR:g} in column {col}"
            )
        a[col], a[pivot_row] = a[pivot_row], a[col]
        for r in range(col + 1, n):
            factor = a[r][col] / a[col][col]
            if factor == 0.0:
                continue
            for c in range(col, n + 1):
                a[r][c] -= factor * a[col][c]
    x = [0.0] * n
    for row in range(n - 1, -1, -1):
        acc = a[row][n]
        for c in range(row + 1, n):
            acc -= a[row][c] * x[c]
        x[row] = acc / a[row][row]
    return x
