"""Truncated power-series arithmetic and exponential-polynomial expansion.

A :class:`Series` holds the coefficients ``c_0 .. c_W`` of a polynomial
``sum(c_k * x**k)`` truncated at a fixed degree ``W``.  Values are immutable;
every operation returns a new series and refuses operands whose truncation
degrees disagree, so a computation can never silently mix rings.

Validation happens where data enters: ``Series(...)`` and
:func:`make_series` convert every coefficient to float and reject empty or
non-finite input.  The ring operations trust their operands and build their
results through :func:`_trusted` without re-checking them, so an overflow
inside the arithmetic propagates as ``inf``/``nan``.
:func:`vihpm.engine.iterate` checks each correction once for finiteness, so
no non-finite series reaches the solver or a printed table.

Tables that depend only on a derivative order and a truncation degree, and
the expansion of an :class:`ExpPoly` at a given degree, are cached with a
fixed bound of ``CACHE_SIZE`` entries each.

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
    if f.truncation != g.truncation:
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
    out = [0.0] * (w + 1)
    for i, a in enumerate(f.coeffs):
        if a == 0.0:
            continue
        for j in range(w + 1 - i):
            out[i + j] += a * g.coeffs[j]
    return _trusted(tuple(out))


def differentiate(f: Series, order: int) -> Series:
    """Formal ``order``-fold derivative, kept in the same ring.

    Degrees above ``W - order`` of the result are zero; the top
    coefficients of ``f`` carry no information about the derivative there.
    """
    if order < 0:
        raise ValueError("derivative order must be non-negative")
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
    """Value of the ``order``-th formal derivative at ``x``."""
    return evaluate(differentiate(f, order), x)


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
    """
    if truncation < 0:
        raise ValueError("truncation degree must be non-negative")
    return _expand_exppoly(e, truncation)


@lru_cache(maxsize=CACHE_SIZE)
def _expand_exppoly(e: ExpPoly, truncation: int) -> Series:
    # ExpPoly equality treats 0.0 and -0.0 alike; both expand to the same
    # bits, because every coefficient is a sum that starts from +0.0.
    out = [0.0] * (truncation + 1)
    for term in e.terms:
        # weights[k] = rate**k / k!
        weights = [1.0]
        for k in range(1, truncation + 1):
            weights.append(weights[-1] * term.rate / k)
        for j, p in enumerate(term.poly):
            if p == 0.0 or j > truncation:
                continue
            for n in range(j, truncation + 1):
                out[n] += p * weights[n - j]
    return _trusted(tuple(out))
