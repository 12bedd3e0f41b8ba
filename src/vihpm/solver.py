"""Determination of the free constants by Newton shooting.

The initial approximation leaves one unknown coefficient per boundary
condition imposed away from the origin.  Since the iteration engine is a
deterministic map from those constants to a series, the off-origin
conditions become a small nonlinear system r(c) = 0, solved by undamped
Newton iteration with dense Gaussian elimination and partial pivoting.
One routine, :func:`_bc_values`, applies the off-origin condition
operators to coefficient tuples of one length, each condition to all of
them, and returns one row per condition with one value per tuple.  The
residual subtracts the conditions' values from the one-entry rows of the
last iterate.  The Jacobian is exact: its rows are those operators applied
to the tangents of the last iterate along the constants, one entry per
constant.  One sweep (:func:`~vihpm.engine._tangents`) propagates every
constant's tangent through the iterates that the Newton pass already
holds.
:func:`fd_jacobian` is a central-difference cross-check for tests; the
solver does not call it.  Nor does it check its input: a
:class:`~vihpm.problems.ProblemSpec` is valid once it exists.
"""

from __future__ import annotations

import math
from typing import Sequence

from .engine import NonFiniteIterateError, _tangents, iterate
# validate and evaluate_derivative are not called here; perfbench/tracing.py
# wraps them on solver by name
from .problems import ProblemSpec, validate
from .series import Series, _derivative_values, _Value, evaluate_derivative

__all__ = [
    "SolveResult",
    "SingularJacobianError",
    "jacobian",
    "fd_jacobian",
    "solve",
]

NEWTON_TOLERANCE = 1e-12
NEWTON_MAX_ITERATIONS = 25
PIVOT_FLOOR = 1e-300
FD_STEP_SCALE = 1e-6


class SingularJacobianError(RuntimeError):
    """The exact Jacobian has no usable pivot: some combination of the free
    constants leaves every off-origin condition unchanged."""


class SolveResult(_Value):
    """Outcome of the constant determination.

    ``constants`` are the solved free coefficients in increasing degree
    order; ``solution`` is the final iterated series at those constants
    after ``newton_iterations`` steps; ``bc_residual_norm`` is the last
    sup-norm of the off-origin defects; ``converged`` is False when Newton
    stalled.  The keyword-only ``iterates`` (v_0..v_k) is not a field, so
    ``==``, ``hash`` and ``repr`` skip it and a copy holds None.
    """

    _fields = (
        "constants", "solution", "newton_iterations", "bc_residual_norm", "converged"
    )
    __slots__ = _fields + ("iterates",)

    def __init__(self, *args: object, iterates: tuple[Series, ...] | None = None,
                 **kwargs: object) -> None:
        super().__init__(*args, **kwargs)
        object.__setattr__(self, "iterates", iterates)


def _bc_values(
    coeffs: Sequence[tuple[float, ...]], spec: ProblemSpec
) -> list[list[float]]:
    """The off-origin condition operators, without their values, applied
    to each of the coefficient tuples ``coeffs``, all of one length: one
    row per condition, in bc order, holding one value per tuple.  The one
    place the solver applies a condition's derivative order and point;
    each condition looks its tables up once for all the tuples."""
    return [
        _derivative_values(coeffs, bc.derivative_order, bc.point)
        for bc in spec.off_origin_conditions()
    ]


def _bc_residuals_of(solution: Series, spec: ProblemSpec) -> tuple[float, ...]:
    """Off-origin condition defects of ``solution``, in bc order."""
    rows = _bc_values((solution.coeffs,), spec)
    return tuple([
        value - bc.value for (value,), bc in zip(rows, spec.off_origin_conditions())
    ])


def jacobian(spec: ProblemSpec, iterates: Sequence[Series]) -> list[list[float]]:
    """Exact Jacobian of the off-origin residuals, by tangent propagation.

    ``iterates`` are the v_0..v_n that :func:`~vihpm.engine.iterate` returns
    at the constants of interest.  The rows are :func:`_bc_values` of the
    tangents of the last iterate, one per condition, and entry j of a row
    is taken on the tangent along free constant j; one sweep
    (:func:`~vihpm.engine._tangents`) gives every tangent.  With no free
    constants there are no off-origin conditions and the Jacobian is ``[]``.
    """
    return _bc_values(_tangents(spec, iterates), spec)


def fd_jacobian(
    spec: ProblemSpec, constants: Sequence[float]
) -> list[list[float]]:
    """Central-difference Jacobian of the off-origin residuals, by column.

    Column j steps constant j by ``FD_STEP_SCALE * max(1, |c_j|)``.  The
    solver does not use it: it is the independent cross-check of
    :func:`jacobian` that the tests compare against.
    """
    constants = [float(c) for c in constants]
    q = len(constants)
    columns = []
    for j in range(q):
        h = FD_STEP_SCALE * max(1.0, abs(constants[j]))
        bumped = list(constants)
        bumped[j] = constants[j] + h
        upper = _bc_residuals_of(iterate(spec, bumped)[-1], spec)
        bumped[j] = constants[j] - h
        lower = _bc_residuals_of(iterate(spec, bumped)[-1], spec)
        columns.append([(u - l) / (2.0 * h) for u, l in zip(upper, lower)])
    return [[columns[j][i] for j in range(q)] for i in range(q)]


def _solve_dense(matrix: list[list[float]], rhs: list[float]) -> list[float]:
    """Gaussian elimination with partial pivoting on a tiny dense system.

    The pivot of column ``col`` is the first row from ``col`` down with the
    largest |entry|, the row ``max(..., key=abs)`` would pick: a later row
    replaces the candidate only when its |entry| is strictly larger, so a
    tie keeps the upper row and a NaN candidate is never replaced.  Each
    elimination updates the columns right of ``col``; the entries below a
    pivot are never read again, so they are left as they were.
    """
    n = len(rhs)
    a = [row[:] + [b] for row, b in zip(matrix, rhs)]
    for col in range(n):
        pivot_row, size = col, abs(a[col][col])
        for r in range(col + 1, n):
            entry = abs(a[r][col])
            if entry > size:
                pivot_row, size = r, entry
        if size < PIVOT_FLOOR:
            raise SingularJacobianError(
                f"Jacobian pivot below {PIVOT_FLOOR:g} in column {col}"
            )
        a[col], a[pivot_row] = a[pivot_row], a[col]
        pivot = a[col]
        head = pivot[col]
        for r in range(col + 1, n):
            row = a[r]
            factor = row[col] / head
            if factor == 0.0:
                continue
            for c in range(col + 1, n + 1):
                row[c] -= factor * pivot[c]
    x = [0.0] * n
    for row in range(n - 1, -1, -1):
        acc = a[row][n]
        for c in range(row + 1, n):
            acc -= a[row][c] * x[c]
        x[row] = acc / a[row][row]
    return x


def solve(spec: ProblemSpec) -> SolveResult:
    """Newton iteration from zero constants to meet off-origin conditions.

    Stops once the boundary residual sup-norm is at most
    ``NEWTON_TOLERANCE`` or after ``NEWTON_MAX_ITERATIONS`` steps.

    ``spec`` is valid, since a :class:`~vihpm.problems.ProblemSpec` checks
    itself when built.  Raises :class:`SingularJacobianError` on a
    degenerate Jacobian and :class:`~vihpm.engine.NonFiniteIterateError`
    when the series arithmetic, a boundary residual, a tangent or a Newton
    step overflows; plain failure to converge is reported through the
    result flags, not an exception.
    """
    constants = [0.0] * spec.unknown_count()
    steps = 0
    while True:
        iterates = iterate(spec, constants)
        solution = iterates[-1]
        r = _bc_residuals_of(solution, spec)
        if not all(map(math.isfinite, r)):
            raise NonFiniteIterateError(
                f"the boundary residual after {steps} Newton steps is non-finite"
            )
        norm = max(map(abs, r), default=0.0)
        if norm <= NEWTON_TOLERANCE or steps >= NEWTON_MAX_ITERATIONS:
            break
        delta = _solve_dense(jacobian(spec, iterates), [-v for v in r])
        constants = [c + d for c, d in zip(constants, delta)]
        steps += 1
        if not all(map(math.isfinite, constants)):
            raise NonFiniteIterateError(
                f"Newton step {steps} made the constants non-finite"
            )
    return SolveResult(
        constants=tuple(constants),
        solution=solution,
        newton_iterations=steps,
        bc_residual_norm=norm,
        converged=norm <= NEWTON_TOLERANCE,
        iterates=iterates,
    )
