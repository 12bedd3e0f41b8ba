"""Empirical contraction diagnostics for the correction map.

The correction map is a contraction on a suitable ball when the problem is
benign, which guarantees a unique fixed point; its contraction constant is
not computable in closed form, so this module estimates it from the decay
of successive correction magnitudes on an evaluation grid and checks the
implied geometric-series bound between every pair of iterates, of which
those :func:`~vihpm.solver.solve` ended with are reused.  All output is
diagnostic: the estimate is a surrogate for the true Lipschitz constant,
not a proof.
"""

from __future__ import annotations

import math
from typing import Sequence

from .engine import NonFiniteIterateError, iterate
from .problems import MAX_SERIES_DEGREE, ProblemSpec
from .series import Series, _checked, _integer, _numbers, _Value, evaluate

__all__ = [
    "ConvergenceReport",
    "analyze_convergence",
    "check_depth",
    "default_grid",
]

BOUND_SLACK = 1e-6


class ConvergenceReport(_Value):
    """Contraction evidence extracted from successive iterates.

    ``deltas[k]`` is the grid sup-norm of iterate k+1 minus iterate k;
    ``gamma_estimates`` holds the ratios of consecutive nonzero deltas,
    ``gamma_max`` the largest, and ``contraction_ok`` whether it is below
    one.  ``banach_bound_ok`` reports whether every iterate pair obeys the
    geometric bound built from ``gamma_max``; ``fixed_point_reached`` is
    set when some correction is identically zero on the grid.
    """

    __slots__ = _fields = (
        "deltas", "gamma_estimates", "gamma_max",
        "contraction_ok", "banach_bound_ok", "fixed_point_reached",
    )


def default_grid(spec: ProblemSpec) -> tuple[float, ...]:
    """Eleven evenly spaced evaluation points over the problem domain."""
    b = spec.domain_end
    return (*[b * i / 10 for i in range(10)], b)


def _sup_gap(f: Sequence[float], g: Sequence[float]) -> float:
    """Sup-norm of the difference of two series' values on one grid."""
    gap = max(abs(a - b) for a, b in zip(f, g))
    if not math.isfinite(gap):
        raise NonFiniteIterateError("a gap between two iterates overflows on the grid")
    return gap


def _geometric_sum(ratio: float, first: int, stop: int) -> float:
    """``ratio**first + ... + ratio**(stop - 1)``, added left to right from
    0.0, so every Python version gives the same bits (``sum()`` of floats
    is compensated since 3.12).  A power that overflows makes it +inf."""
    total = 0.0
    try:
        for j in range(first, stop):
            total += ratio**j
    except OverflowError:
        return math.inf
    return total


def check_depth(spec: ProblemSpec, depth: int) -> int:
    """Return ``depth`` as an int, or reject it: it must be an integer of at
    least 2, so that there is a ratio, and the last correction's degree
    W + depth * m must stay within ``MAX_SERIES_DEGREE`` like the solve's.
    """
    depth = _checked(_integer, "depth", depth)
    if depth < 2:
        raise ValueError("need at least two corrections to estimate a ratio")
    top = spec.truncation + depth * spec.order
    if top > MAX_SERIES_DEGREE:
        raise ValueError(
            f"depth {depth} reaches series degree {top}, above {MAX_SERIES_DEGREE}"
        )
    return depth


def analyze_convergence(
    spec: ProblemSpec,
    constants: Sequence[float],
    depth: int = 3,
    grid: Sequence[float] | None = None,
    iterates: Sequence[Series] | None = None,
) -> ConvergenceReport:
    """Run ``depth`` corrections and assess empirical contraction.

    The bound checked for every pair l < k is

        sup|v_k - v_l|  <=  (1 + slack) * delta_0 * sum_{j=l-1}^{k-2} gamma_max^j

    which is the triangle-inequality consequence of a true contraction
    constant gamma_max; the slack absorbs grid evaluation roundoff.  A
    power of gamma_max that overflows is +inf; delta_0 == 0 bounds by 0.
    A grid that is not a sequence of numbers, is empty or has a non-finite
    point raises ``ValueError`` before any correction runs, as do constants
    that :func:`~vihpm.engine.initial_approx` rejects.  Raises
    :class:`~vihpm.engine.NonFiniteIterateError` when an iterate's value on
    the grid or a gap between two iterates is not finite.  ``iterates``, such as a :class:`~vihpm.solver.SolveResult`'s,
    are v_0..v_j at ``constants``; only corrections past j are run.
    """
    depth = check_depth(spec, depth)
    if grid is None:
        grid = default_grid(spec)
    grid = _checked(_numbers, "grid", grid)
    if not grid or not all(map(math.isfinite, grid)):
        raise ValueError("grid must be non-empty and finite")
    v = iterate(spec, constants, depth, iterates or ())
    # each iterate is evaluated once; every sup below reads these values
    values = [[evaluate(vk, x) for x in grid] for vk in v]
    for k, row in enumerate(values):
        # checked here, since max() in _sup_gap can skip a nan
        if not all(map(math.isfinite, row)):
            raise NonFiniteIterateError(f"iterate {k} is non-finite on the grid")
    deltas = tuple(_sup_gap(values[k + 1], values[k]) for k in range(depth))

    estimates = tuple(
        deltas[k + 1] / deltas[k]
        for k in range(depth - 1)
        if deltas[k] > 0.0
    )
    gamma_max = max(estimates, default=0.0)
    fixed_point = any(d == 0.0 for d in deltas)

    bound_ok = True
    for k in range(1, depth + 1):
        for l in range(1, k):
            # 0**0 == 1 covers gamma_max == 0 at j == 0
            geometric = _geometric_sum(gamma_max, l - 1, k - 1)
            # inf * 0.0 would be a nan bound that every gap passes
            bound = geometric * deltas[0] * (1.0 + BOUND_SLACK) if deltas[0] else 0.0
            if _sup_gap(values[k], values[l]) > bound:
                bound_ok = False
    return ConvergenceReport(
        deltas=deltas,
        gamma_estimates=estimates,
        gamma_max=gamma_max,
        contraction_ok=gamma_max < 1.0,
        banach_bound_ok=bound_ok,
        fixed_point_reached=fixed_point,
    )
