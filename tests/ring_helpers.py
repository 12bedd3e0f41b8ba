"""Series helpers, reference formulas and problem rendering that only the
tests use, kept out of the package."""

import math
from typing import Iterable, Sequence

from vihpm.problems import ProblemSpec
from vihpm.series import ExpPoly, Series, _check_same_ring, _trusted
from vihpm.engine import iterate
from vihpm.solver import PIVOT_FLOOR, SingularJacobianError, _bc_residuals_of


def scale(f: Series, c: float) -> Series:
    """Multiply every coefficient by the finite scalar ``c``."""
    c = float(c)
    if not math.isfinite(c):
        raise ValueError("scale factor must be finite")
    return _trusted(tuple([c * a for a in f.coeffs]))


def reference_mul(f: Series, g: Series) -> Series:
    """The ring's original Cauchy product: one nonzero row of ``f`` per
    pass over the output, zero rows skipped."""
    _check_same_ring(f, g)
    w = f.truncation
    gc = g.coeffs
    out = [0.0] * (w + 1)
    for i, a in enumerate(f.coeffs):
        if a == 0.0:
            continue
        for j in range(w + 1 - i):
            out[i + j] += a * gc[j]
    return _trusted(tuple(out))


def bc_residuals(spec: ProblemSpec, constants: Sequence[float]) -> tuple[float, ...]:
    """Off-origin condition defects of the iterated series at ``constants``,
    in bc order, as the solver's Newton pass computes them."""
    return _bc_residuals_of(iterate(spec, constants)[-1], spec)


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


class _CountingTable(dict):
    """An expansion table that logs each degree stored above every degree
    it already holds: the degrees ``expand_exppoly`` computes rather than
    slices."""

    def __init__(self, log: list) -> None:
        super().__init__()
        self.log = log

    def __setitem__(self, degree: int, series: Series) -> None:
        if degree > max(self, default=-1):
            self.log.append(degree)
        super().__setitem__(degree, series)


def count_computations(e: ExpPoly) -> list[int]:
    """Give ``e`` an empty expansion table that records each degree whose
    coefficients it computes, in order, into the returned list."""
    log: list[int] = []
    object.__setattr__(e, "_expansion", _CountingTable(log))
    return log


def replace(value, /, **changes):
    """Copy of a package value with the named fields changed; the copy is
    built by the class itself, so it is validated and derives its own
    tables."""
    return value._replace(**changes)


def _render_numbers(values: Iterable[float]) -> str:
    # repr round-trips doubles exactly, so parse(render(spec)) == spec
    return " ".join(repr(v) for v in values)


def render_problem(spec: ProblemSpec) -> str:
    """Serialize a spec into the problem file format (inverse of parse).

    A term whose coefficient sums several exponentials is emitted as one
    line per exponential with repeated factors; that splitting is
    mathematically equivalent but changes structure, so exact round-trip
    holds for single-exponential coefficients (all built-ins qualify).
    """
    lines = [
        f"order {spec.order}",
        f"domain 0 {repr(spec.domain_end)}",
        f"truncation {spec.truncation}",
        f"iterations {spec.iterations}",
    ]
    for term in spec.terms:
        for part in term.coeff.terms:
            line = f"term {_render_numbers((part.rate,) + part.poly)}"
            if term.factors:
                line += " ; " + " ".join(str(d) for d in term.factors)
            lines.append(line)
    for bc in spec.bcs:
        lines.append(
            f"bc {repr(bc.point)} {bc.derivative_order} {repr(bc.value)}"
        )
    if spec.exact is not None:
        for part in spec.exact.terms:
            lines.append(f"exact {_render_numbers((part.rate,) + part.poly)}")
    return "\n".join(lines) + "\n"
