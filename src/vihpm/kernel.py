"""Integral correction kernel for an order-m differential operator.

The correction step of the iteration adds ``integral_0^x lam(t, x) * r(t) dt``
to the current approximation, where ``r`` is the equation residual and the
weight ``lam(t, x) = (-1)**m * (t - x)**(m - 1) / (m - 1)!`` makes the
functional stationary with respect to variations of the approximation: the
natural conditions ``1 + lam^(m-1) = 0`` at ``t = x`` and ``lam^(j) = 0`` at
``t = x`` for ``j <= m - 2`` pin the weight down uniquely.

On a monomial residual the integral is closed-form,

    integral_0^x t**j (t - x)**(m-1) dt = (-1)**(m-1) j! (m-1)!/(j+m)! x**(j+m),

so applying the kernel to ``sum c_j t**j`` yields ``-c_j * j!/(j+m)!`` at
degree ``j + m``: K is minus the m-fold integral ``I^m`` from 0.  Hence
``K(v^(m)) = -(v - T_{m-1} v)`` with ``T_{m-1} v`` the Taylor head of degree
below m, and the correction ``v + K(v^(m) - F(v))`` equals
``T_{m-1} v + I^m F(v)``, the form :func:`vihpm.engine.correct_once`
computes.  :meth:`CorrectionKernel.integrate` applies K on its own, and
discards degrees beyond the kernel's truncation; the engine's Picard step
reads the same weights (:func:`_kernel_weights`) and builds the corrected
series directly, with the same bits.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import mul

from .series import CACHE_SIZE, Series, _integer, _raise, _trusted, _Value

__all__ = ["CorrectionKernel"]


class CorrectionKernel(_Value):
    """Closed-form correction integral for ``d^order/dx^order``."""

    __slots__ = _fields = ("order", "truncation")

    def __init__(self, order: int, truncation: int) -> None:
        errors: list[str] = []
        order = _integer("order", order, errors)
        truncation = _integer("truncation", truncation, errors)
        _raise(errors)
        if order < 1:
            raise ValueError("operator order must be at least 1")
        if truncation < order:
            raise ValueError(
                "truncation degree must be at least the operator order"
            )
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "truncation", truncation)

    def multiplier(self, t: float, x: float) -> float:
        """Weight ``(-1)**m (t - x)**(m-1) / (m-1)!`` at one point."""
        m = self.order
        sign = -1.0 if m % 2 else 1.0
        return sign * (t - x) ** (m - 1) / math.factorial(m - 1)

    def integrate(self, f: Series) -> Series:
        """Apply the correction integral ``-I^m`` to a series.

        The degree-j input coefficient lands at degree ``j + order`` scaled
        by ``-j!/(j+order)!`` (see :func:`_kernel_weights`).  Degrees of the
        image that exceed the kernel truncation are discarded.
        """
        if f.truncation != self.truncation:
            raise ValueError(
                f"series truncation {f.truncation} does not match "
                f"kernel truncation {self.truncation}"
            )
        m = self.order
        out = [0.0] * (self.truncation + 1)
        out[m:] = map(mul, f.coeffs, _kernel_weights(m, self.truncation))
        return _trusted(tuple(out))


@lru_cache(maxsize=CACHE_SIZE)
def _kernel_weights(order: int, truncation: int) -> tuple[float, ...]:
    """``-j!/(j+order)!`` for ``j = 0 .. truncation - order``.

    Each ratio is accumulated as a running product of reciprocals, so no
    factorial overflows.  Negating the ratio rather than the coefficient
    gives the same bits: round-to-nearest is symmetric in sign.
    """
    table = []
    for j in range(truncation + 1 - order):
        ratio = 1.0
        for i in range(j + 1, j + order + 1):
            ratio /= i
        table.append(-ratio)
    return tuple(table)
