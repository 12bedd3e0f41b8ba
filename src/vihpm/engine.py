"""Series iteration engine: initial approximation, residual, correction map.

The solution process starts from a degree-(m-1) polynomial carrying the
origin conditions plus free constants, then repeatedly applies the
correction map ``B(v) = v + K(v^(m) - F(v))`` with the integral K of
:mod:`vihpm.kernel`.  Since ``K(v^(m)) = -(v - T_{m-1} v)`` exactly, B is
Picard iteration on Taylor coefficients (the Parker-Sochacki method),
``B(v) = T_{m-1} v + I^m F(v)``: v's first m coefficients, which carry the
origin conditions, are kept and ``c_{n+m} = F(v)_n * n!/(n+m)!``.  So the
k-th iterate lives at truncation ``W + k*m``, and each correction leaves a
growing prefix of the previous iterate's coefficients unchanged.

The series arithmetic does not check its results (see :mod:`vihpm.series`);
:func:`iterate` checks every new iterate once and raises
:class:`NonFiniteIterateError` when the arithmetic has overflowed.

He coefficients (the p-expansion orders of F on a parameter-embedded sum)
come from direct convolution in the embedding parameter; order 0 follows
the correction's F operation for operation, so the two agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .kernel import CorrectionKernel
from .problems import ProblemSpec
from .series import (
    Series,
    _trusted,
    add,
    differentiate,
    evaluate,
    expand_exppoly,
    make_series,
    mul,
    pad_to,
    sub,
)

__all__ = [
    "NonFiniteIterateError",
    "PerturbationExpansion",
    "initial_approx",
    "residual",
    "correct_once",
    "he_coefficients",
    "iterate",
]


class NonFiniteIterateError(ArithmeticError):
    """A correction produced an infinite or NaN series coefficient."""


@dataclass(frozen=True)
class PerturbationExpansion:
    """Orders h_0..h_K of F(sum_k p^k u_k) as a polynomial in p."""

    orders: tuple[Series, ...]

    def __post_init__(self) -> None:
        if len(self.orders) == 0:
            raise ValueError("expansion needs at least the order-0 series")
        w = self.orders[0].truncation
        if any(h.truncation != w for h in self.orders):
            raise ValueError("expansion orders must share one truncation degree")

    def evaluate_at(self, p: float, x: float) -> float:
        """Value of sum_k h_k(x) p**k; used to test the expansion."""
        return sum(evaluate(h, x) * p**k for k, h in enumerate(self.orders))


def initial_approx(spec: ProblemSpec, constants: Sequence[float]) -> Series:
    """Degree-(m-1) polynomial fixing origin data, free constants elsewhere.

    Each origin condition of derivative order j pins the Taylor coefficient
    ``c_j = value / j!``; the remaining degrees below m, in increasing
    order, take the entries of ``constants`` directly.
    """
    free = spec.unknown_degrees()
    if len(constants) != len(free):
        raise ValueError(
            f"expected {len(free)} free constants, got {len(constants)}"
        )
    coeffs = [0.0] * spec.order
    for bc in spec.origin_conditions():
        coeffs[bc.derivative_order] = bc.value / math.factorial(bc.derivative_order)
    for degree, value in zip(free, constants):
        coeffs[degree] = float(value)
    return make_series(coeffs, spec.truncation)


def _apply_rhs(v: Series, spec: ProblemSpec) -> Series:
    """F(v): sum over terms of coeff-series times derivative products.

    The per-term accumulation order (expansion first, then factors left to
    right) is mirrored in he_coefficients' order-0 path; keep in sync.
    """
    w = v.truncation
    total: Series | None = None
    for term in spec.terms:
        acc = expand_exppoly(term.coeff, w)
        for d in term.factors:
            acc = mul(acc, differentiate(v, d))
        total = acc if total is None else add(total, acc)
    if total is None:
        total = make_series((), w)
    return total


def residual(v: Series, spec: ProblemSpec) -> Series:
    """Equation defect ``v^(m) - F(v)`` in v's own ring."""
    return sub(differentiate(v, spec.order), _apply_rhs(v, spec))


def correct_once(v: Series, spec: ProblemSpec) -> Series:
    """One correction ``T_{m-1} v + I^m F(v)``, F evaluated in v's own ring.

    Lifting v adds only zeros, so ``F(v)_n`` for n <= W is the same at degree
    W as at W + m; the kernel's ``-I^m F`` is subtracted from the kept head.
    """
    m = spec.order
    w = v.truncation + m
    integral = CorrectionKernel(m, w).integrate(pad_to(_apply_rhs(v, spec), w))
    head = _trusted(v.coeffs[:m] + (0.0,) * (w + 1 - m))
    return sub(head, integral)


def he_coefficients(
    spec: ProblemSpec, parts: Sequence[Series]
) -> PerturbationExpansion:
    """Expand F(sum_k p^k parts[k]) in p, truncated at K = len(parts) - 1.

    Works by convolving, factor by factor, the p-polynomials whose p-degree-k
    entry is the k-th part's derivative series.  Forcing terms (no factors)
    contribute only to order 0.
    """
    if len(parts) == 0:
        raise ValueError("need at least one expansion part")
    w = parts[0].truncation
    if any(u.truncation != w for u in parts):
        raise ValueError("expansion parts must share one truncation degree")
    cap = len(parts) - 1
    totals: list[Series | None] = [None] * (cap + 1)
    for term in spec.terms:
        conv: list[Series] = [expand_exppoly(term.coeff, w)]
        for d in term.factors:
            factor = [differentiate(u, d) for u in parts]
            out = [mul(conv[0], right) for right in factor]
            for i in range(1, len(conv)):
                for k in range(i, cap + 1):
                    out[k] = add(out[k], mul(conv[i], factor[k - i]))
            conv = out
        for k, h in enumerate(conv):
            totals[k] = h if totals[k] is None else add(totals[k], h)
    zero = make_series((), w)
    return PerturbationExpansion(
        tuple(t if t is not None else zero for t in totals)
    )


def iterate(
    spec: ProblemSpec,
    constants: Sequence[float],
    n_iter: int | None = None,
) -> tuple[Series, ...]:
    """Run the correction map ``n_iter`` times from the initial polynomial.

    Returns the successive approximations v_0..v_n; ``v_k`` has truncation
    degree W + k*m, so the last entry is the solution.  The initial
    polynomial is validated and each correction is checked, so every
    returned iterate is finite: :class:`NonFiniteIterateError` is raised
    when the iterate produced by a correction is not.
    """
    if n_iter is None:
        n_iter = spec.iterations
    if n_iter < 0:
        raise ValueError("iteration count must be non-negative")
    iterates = [initial_approx(spec, constants)]
    for k in range(1, n_iter + 1):
        nxt = correct_once(iterates[-1], spec)
        if not all(map(math.isfinite, nxt.coeffs)):
            raise NonFiniteIterateError(
                f"correction {k} made the iterate non-finite"
            )
        iterates.append(nxt)
    return tuple(iterates)
