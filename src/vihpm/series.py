"""Truncated power-series arithmetic and exponential-polynomial expansion.

A :class:`Series` holds the coefficients ``c_0 .. c_W`` of a polynomial
``sum(c_k * x**k)`` truncated at a fixed degree ``W``.  Values are immutable,
so they can be shared: a derivative of order 0 is its series itself, and
every other operation returns a new series.  Binary operations refuse
operands whose truncation degrees disagree, so a computation can never
silently mix rings.  :func:`evaluate_derivative` reads a derivative's value
straight from the coefficients and builds no series.

Validation happens where data enters: ``Series(...)`` and
:func:`make_series` convert every coefficient to float and reject empty or
non-finite input.  The ring operations trust their operands and build their
results through :func:`_trusted` without re-checking them, so an overflow
inside the arithmetic propagates as ``inf``/``nan``.
:func:`vihpm.engine.iterate` checks each correction once for finiteness, so
no non-finite series reaches the solver or a printed table.

Tables that depend only on a derivative order and a truncation degree are
cached with a fixed bound of ``CACHE_SIZE`` entries each.  The expansion of
an :class:`ExpPoly` is cached once per value, up to the highest degree asked
for so far, under the same bound: a request at a higher degree computes only
the new coefficients, and one at a lower degree returns a prefix.

:class:`ExpPoly` represents a finite sum of ``exp(rate * x) * p(x)`` terms
with polynomial ``p``.  It is the closed function class used for forcing
terms and reference solutions, and :func:`expand_exppoly` projects it into
the series ring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from operator import add as _fadd, mul as _fmul, sub as _fsub
from typing import Sequence

__all__ = [
    "Series",
    "ExpTerm",
    "ExpPoly",
    "make_series",
    "pad_to",
    "add",
    "sub",
    "scale",
    "mul",
    "differentiate",
    "evaluate",
    "evaluate_derivative",
    "expand_exppoly",
]

CACHE_SIZE = 256


@dataclass(frozen=True)
class Series:
    """Coefficients ``c_0 .. c_W`` of a power series truncated at degree W.

    Constructing one validates its input: coefficients become floats, and
    empty or non-finite input raises ``ValueError``.  Results of the ring
    operations skip that check (see the module docstring); their
    finiteness is checked once per correction by the iteration engine.
    """

    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) == 0:
            raise ValueError("a series needs at least one coefficient")
        coeffs = tuple([float(c) for c in self.coeffs])
        if not all(math.isfinite(c) for c in coeffs):
            raise ValueError("series coefficients must be finite")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def truncation(self) -> int:
        """Highest retained degree W."""
        return len(self.coeffs) - 1


def _trusted(coeffs: tuple[float, ...]) -> Series:
    """Wrap a ring-operation result, a non-empty tuple of floats, unchecked."""
    s = object.__new__(Series)
    object.__setattr__(s, "coeffs", coeffs)
    return s


def make_series(coeffs: Sequence[float], truncation: int) -> Series:
    """Build a series at degree ``truncation``, zero-padding short input.

    Rejects coefficient lists longer than ``truncation + 1``: dropping
    supplied data would hide a degree error at the call site.
    """
    if truncation < 0:
        raise ValueError("truncation degree must be non-negative")
    values = [float(c) for c in coeffs]
    if len(values) > truncation + 1:
        raise ValueError(
            f"{len(values)} coefficients exceed truncation degree {truncation}"
        )
    values += [0.0] * (truncation + 1 - len(values))
    return Series(tuple(values))


def pad_to(f: Series, truncation: int) -> Series:
    """Re-embed ``f`` in a ring of higher truncation degree (exact)."""
    if truncation < f.truncation:
        raise ValueError("padding cannot lower the truncation degree")
    out = [0.0] * (truncation + 1)
    out[: len(f.coeffs)] = f.coeffs
    return _trusted(tuple(out))


def _check_same_ring(f: Series, g: Series) -> None:
    if len(f.coeffs) != len(g.coeffs):
        raise ValueError(
            f"truncation mismatch: {f.truncation} vs {g.truncation}"
        )


def add(f: Series, g: Series) -> Series:
    """Coefficient-wise sum at equal truncation."""
    _check_same_ring(f, g)
    return _trusted(tuple([*map(_fadd, f.coeffs, g.coeffs)]))


def sub(f: Series, g: Series) -> Series:
    """Coefficient-wise difference at equal truncation."""
    _check_same_ring(f, g)
    return _trusted(tuple([*map(_fsub, f.coeffs, g.coeffs)]))


def scale(f: Series, c: float) -> Series:
    """Multiply every coefficient by the finite scalar ``c``."""
    c = float(c)
    if not math.isfinite(c):
        raise ValueError("scale factor must be finite")
    return _trusted(tuple([c * a for a in f.coeffs]))


def mul(f: Series, g: Series) -> Series:
    """Cauchy product truncated at the common degree."""
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


def differentiate(f: Series, order: int) -> Series:
    """Formal ``order``-fold derivative, kept in the same ring.

    Degrees above ``W - order`` of the result are zero; the top
    coefficients of ``f`` carry no information about the derivative there.
    Order 0 returns ``f`` itself: a series is immutable, so it can be shared.
    """
    if order < 0:
        raise ValueError("derivative order must be non-negative")
    if order == 0:
        return f
    w = f.truncation
    falls = _falling_factorials(order, w)
    out = [0.0] * (w + 1)
    out[: len(falls)] = map(_fmul, islice(f.coeffs, order, None), falls)
    return _trusted(tuple(out))


@lru_cache(maxsize=CACHE_SIZE)
def _falling_factorials(order: int, truncation: int) -> tuple[float, ...]:
    """``(k+1)(k+2)...(k+order)`` for ``k = 0 .. truncation - order``."""
    table = []
    for k in range(truncation + 1 - order):
        fall = 1.0
        for i in range(k + 1, k + order + 1):
            fall *= i
        table.append(fall)
    return tuple(table)


def evaluate(f: Series, x: float) -> float:
    """Horner evaluation of the truncated polynomial at ``x``."""
    acc = 0.0
    for c in reversed(f.coeffs):
        acc = acc * x + c
    return acc


def evaluate_derivative(f: Series, order: int, x: float) -> float:
    """Value of the ``order``-th formal derivative at finite ``x``.

    Horner's rule runs over ``f.coeffs[k + order] * fall_k`` for k from
    ``W - order`` down to 0, without building the derivative series.  The
    derivative's top ``order`` coefficients are zeros, which would leave
    the accumulator at +0.0 for any finite ``x``, so skipping them gives
    the bits of :func:`evaluate` on :func:`differentiate`.
    """
    if order < 0:
        raise ValueError("derivative order must be non-negative")
    if order == 0:
        return evaluate(f, x)
    falls = _falling_factorials(order, f.truncation)
    acc = 0.0
    for c, fall in zip(reversed(f.coeffs[order:]), reversed(falls)):
        acc = acc * x + c * fall
    return acc


@dataclass(frozen=True)
class ExpTerm:
    """One ``exp(rate * x) * polynomial`` term."""

    rate: float
    poly: tuple[float, ...]

    def __post_init__(self) -> None:
        rate = float(self.rate)
        poly = tuple(float(c) for c in self.poly)
        if len(poly) == 0:
            raise ValueError("exponential-polynomial term needs a polynomial part")
        if not math.isfinite(rate) or not all(math.isfinite(c) for c in poly):
            raise ValueError("exponential-polynomial data must be finite")
        object.__setattr__(self, "rate", rate)
        object.__setattr__(self, "poly", poly)


@dataclass(frozen=True)
class ExpPoly:
    """Finite sum of exponential-polynomial terms."""

    terms: tuple[ExpTerm, ...]

    def __post_init__(self) -> None:
        # a tuple keeps the value hashable, as expand_exppoly's cache needs
        object.__setattr__(self, "terms", tuple(self.terms))

    @classmethod
    def from_terms(cls, terms: Sequence[tuple[float, Sequence[float]]]) -> "ExpPoly":
        return cls(tuple(ExpTerm(rate, tuple(poly)) for rate, poly in terms))

    def evaluate(self, x: float) -> float:
        """Direct evaluation, independent of any series truncation."""
        total = 0.0
        for term in self.terms:
            acc = 0.0
            for c in reversed(term.poly):
                acc = acc * x + c
            total += math.exp(term.rate * x) * acc
        return total


def expand_exppoly(e: ExpPoly, truncation: int) -> Series:
    """Taylor coefficients of ``e`` about 0, truncated at ``truncation``.

    For a term ``exp(a*x) * sum(p_j x**j)`` the degree-n coefficient is
    ``sum_j p_j * a**(n-j) / (n-j)!``; the exponential weights are built by
    the running recurrence ``a**k / k!`` so nothing large is ever formed.
    Each coefficient is computed once per cached ``e`` (see
    :class:`_Expansion`).
    """
    if truncation < 0:
        raise ValueError("truncation degree must be non-negative")
    return _expansion(e).up_to(truncation)


class _Expansion:
    """The Taylor coefficients of one :class:`ExpPoly`, extended on demand.

    ``coeffs`` holds degrees 0..D computed so far, and ``weights`` each
    term's ``rate**k / k!`` for k = 0..D, the state the next degrees need.
    Every degree-n coefficient is a sum that starts from +0.0 and adds
    ``p_j * weights[n - j]`` over the terms in order and, within a term, over
    ascending j, skipping zero ``p_j``.  That order does not depend on D, so
    an extended expansion has the bits of one computed at once.  ExpPoly
    equality treats 0.0 and -0.0 alike; both expand to the same bits,
    because a zero rate gives zero weights past degree 0, a zero ``p_j``
    is skipped, and +0.0 plus a zero of either sign is +0.0.
    """

    __slots__ = ("terms", "weights", "coeffs")

    def __init__(self, e: ExpPoly) -> None:
        self.terms = tuple((term.rate, term.poly) for term in e.terms)
        self.weights = tuple([1.0] for _ in e.terms)
        self.coeffs: tuple[float, ...] = ()

    def up_to(self, truncation: int) -> Series:
        start = len(self.coeffs)
        if truncation >= start:
            out = [0.0] * (truncation + 1 - start)
            for (rate, poly), weights in zip(self.terms, self.weights):
                for k in range(len(weights), truncation + 1):
                    weights.append(weights[-1] * rate / k)
                for j, p in enumerate(poly):
                    if p == 0.0:
                        continue
                    for n in range(max(j, start), truncation + 1):
                        out[n - start] += p * weights[n - j]
            self.coeffs += tuple(out)
        return _trusted(self.coeffs[: truncation + 1])


@lru_cache(maxsize=CACHE_SIZE)
def _expansion(e: ExpPoly) -> _Expansion:
    """The one expansion kept for ``e``, among the most recently used."""
    return _Expansion(e)
