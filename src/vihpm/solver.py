"""Determination of the free constants by Newton shooting.

The initial approximation leaves one unknown coefficient per boundary
condition imposed away from the origin.  Since the iteration engine is a
deterministic map from those constants to a series, the off-origin
conditions become a small nonlinear system r(c) = 0, solved by damped-free
Newton iteration with a central finite-difference Jacobian and dense
Gaussian elimination with partial pivoting.  The systems here are at most
m-by-m with m tiny, so robustness beats speed everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .engine import iterate
from .problems import InvalidProblemError, ProblemSpec, validate
from .series import Series, evaluate_derivative

__all__ = [
    "SolveResult",
    "SingularJacobianError",
    "bc_residuals",
    "fd_jacobian",
    "solve",
]

NEWTON_TOLERANCE = 1e-12
NEWTON_MAX_ITERATIONS = 25
PIVOT_FLOOR = 1e-300
FD_STEP_SCALE = 1e-6


class SingularJacobianError(RuntimeError):
    """The finite-difference Jacobian has no usable pivot."""


@dataclass(frozen=True)
class SolveResult:
    """Outcome of the constant determination.

    ``constants`` are the solved free coefficients in increasing degree
    order; ``solution`` is the final iterated series at those constants.
    ``converged`` is False when Newton stalled, in which case
    ``bc_residual_norm`` reports the last achieved sup-norm.
    """

    constants: tuple[float, ...]
    solution: Series
    newton_iterations: int
    bc_residual_norm: float
    converged: bool


def bc_residuals(
    spec: ProblemSpec, constants: Sequence[float]
) -> tuple[float, ...]:
    """Off-origin condition defects of the iterated series, in bc order.

    Origin conditions are satisfied identically by construction, so only
    conditions at points other than 0 contribute equations.
    """
    solution = iterate(spec, constants).final
    return _bc_residuals_of(solution, spec)


def _bc_residuals_of(solution: Series, spec: ProblemSpec) -> tuple[float, ...]:
    return tuple(
        evaluate_derivative(solution, bc.derivative_order, bc.point) - bc.value
        for bc in spec.off_origin_conditions()
    )


def fd_jacobian(
    spec: ProblemSpec,
    constants: Sequence[float],
    step_scale: float = FD_STEP_SCALE,
) -> list[list[float]]:
    """Central-difference Jacobian of bc_residuals, column by column."""
    constants = [float(c) for c in constants]
    q = len(constants)
    columns = []
    for j in range(q):
        h = step_scale * max(1.0, abs(constants[j]))
        bumped = list(constants)
        bumped[j] = constants[j] + h
        upper = bc_residuals(spec, bumped)
        bumped[j] = constants[j] - h
        lower = bc_residuals(spec, bumped)
        columns.append([(u - l) / (2.0 * h) for u, l in zip(upper, lower)])
    return [[columns[j][i] for j in range(q)] for i in range(q)]


def _solve_dense(matrix: list[list[float]], rhs: list[float]) -> list[float]:
    """Gaussian elimination with partial pivoting on a tiny dense system."""
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


def solve(
    spec: ProblemSpec,
    tolerance: float = NEWTON_TOLERANCE,
    max_iterations: int = NEWTON_MAX_ITERATIONS,
) -> SolveResult:
    """Newton iteration from zero constants to meet off-origin conditions.

    Raises :class:`InvalidProblemError` on a malformed spec,
    :class:`SingularJacobianError` on a degenerate Jacobian and
    :class:`~vihpm.engine.NonFiniteIterateError` when the series arithmetic
    overflows; plain failure to converge is reported through the result
    flags, not an exception.
    """
    errors = validate(spec)
    if errors:
        raise InvalidProblemError(errors)

    constants = [0.0] * spec.unknown_count()
    solution = iterate(spec, constants).final
    r = _bc_residuals_of(solution, spec)
    norm = max((abs(v) for v in r), default=0.0)
    steps = 0
    while norm > tolerance and steps < max_iterations:
        jacobian = fd_jacobian(spec, constants)
        delta = _solve_dense(jacobian, [-v for v in r])
        constants = [c + d for c, d in zip(constants, delta)]
        solution = iterate(spec, constants).final
        r = _bc_residuals_of(solution, spec)
        norm = max((abs(v) for v in r), default=0.0)
        steps += 1
    return SolveResult(
        constants=tuple(constants),
        solution=solution,
        newton_iterations=steps,
        bc_residual_norm=norm,
        converged=norm <= tolerance,
    )
