"""Series iteration engine: initial approximation, residual, correction map.

The solution process starts from a degree-(m-1) polynomial carrying the
origin conditions plus free constants, then repeatedly applies the
correction map ``B(v) = v + K(v^(m) - F(v))`` where K is the closed-form
integral of :mod:`vihpm.kernel`.  Each application enlarges the series
degree by m, so the k-th iterate lives at truncation ``W + k*m``; the
correction vanishes to order m at 0, which preserves every origin
condition exactly.

The series arithmetic does not check its results (see :mod:`vihpm.series`);
:func:`iterate` checks every correction once and raises
:class:`NonFiniteIterateError` when the arithmetic has overflowed.

He coefficients (the p-expansion orders of F applied to a parameter-embedded
sum) are computed by direct polynomial convolution in the embedding
parameter; the order-0 coefficient is computed in the same operation order
as the residual's F so the two agree coefficient for coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .kernel import CorrectionKernel
from .problems import ProblemSpec
from .series import (
    Series,
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
    "IterationState",
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


@dataclass(frozen=True)
class IterationState:
    """Successive approximations v_0..v_n and their corrections u_1..u_n.

    ``iterates[k]`` has truncation degree W + k*m; ``corrections[k-1]``
    equals ``iterates[k] - iterates[k-1]`` after padding to the larger ring.
    """

    iterates: tuple[Series, ...]
    corrections: tuple[Series, ...]

    def __post_init__(self) -> None:
        if len(self.iterates) != len(self.corrections) + 1:
            raise ValueError("need exactly one more iterate than corrections")

    @property
    def final(self) -> Series:
        return self.iterates[-1]


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
    """One application of the correction map B.

    The image of the correction integral on a degree-W residual extends to
    degree W + m, so the iterate is first lifted into the larger ring; the
    added correction then retains the integral's full polynomial image.
    The correction has no terms below degree m, hence origin conditions
    survive untouched.
    """
    m = spec.order
    lifted = pad_to(v, v.truncation + m)
    kernel = CorrectionKernel(m, lifted.truncation)
    return add(lifted, kernel.integrate(residual(lifted, spec)))


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
            out: list[Series | None] = [None] * (
                min(len(conv) - 1 + cap, cap) + 1
            )
            for i, left in enumerate(conv):
                if i > cap:
                    break
                for j, right in enumerate(factor):
                    k = i + j
                    if k > cap:
                        break
                    prod = mul(left, right)
                    out[k] = prod if out[k] is None else add(out[k], prod)
            conv = [s for s in out if s is not None]
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
) -> IterationState:
    """Run the correction map ``n_iter`` times from the initial polynomial.

    Raises :class:`NonFiniteIterateError` when a correction is not finite.
    The initial polynomial is validated, so by induction a finite
    correction also means a finite iterate.
    """
    if n_iter is None:
        n_iter = spec.iterations
    if n_iter < 0:
        raise ValueError("iteration count must be non-negative")
    iterates = [initial_approx(spec, constants)]
    corrections = []
    for k in range(1, n_iter + 1):
        nxt = correct_once(iterates[-1], spec)
        correction = sub(nxt, pad_to(iterates[-1], nxt.truncation))
        if not all(map(math.isfinite, correction.coeffs)):
            raise NonFiniteIterateError(
                f"correction {k} has non-finite series coefficients"
            )
        corrections.append(correction)
        iterates.append(nxt)
    return IterationState(tuple(iterates), tuple(corrections))
