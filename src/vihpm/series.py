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
non-finite input, with the field checkers defined here that every checked
value of the package shares, ``_count`` (an integer of at least 0) among
them; ``_checked`` runs one on a single argument and raises at once.  The
ring operations trust their operands and build their results through
:func:`_trusted` without re-checking them, so an overflow inside the
arithmetic propagates as ``inf``/``nan``.
:func:`vihpm.engine.iterate` checks each correction once for finiteness, so
no non-finite series reaches the solver or a printed table.

Tables that depend only on a few integers are cached with a fixed bound
of ``CACHE_SIZE`` entries each: the falling factorials here, the kernel
weights of :mod:`vihpm.kernel`, and the He polynomial picks, each factor's
tangent chain orders and the tangent seeds of :mod:`vihpm.engine`
(``_picks``, ``_rests`` and ``_seed``).  Each :class:`ExpPoly` owns its
expansion table, which lives as long as the value does and keeps the
series returned at each degree.  A degree below the highest one held is
a slice; a higher one is computed afresh, so :func:`vihpm.engine.iterate`
asks for its top ring before its corrections.

:class:`ExpPoly` represents a finite sum of ``exp(rate * x) * p(x)`` terms
with polynomial ``p``.  It is the closed function class used for forcing
terms and reference solutions, and :func:`expand_exppoly` projects it into
the series ring.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import compress, islice
from operator import add as _fadd, mul as _fmul, sub as _fsub
from typing import Callable, Sequence

__all__ = [
    "Series",
    "ExpTerm",
    "ExpPoly",
    "make_series",
    "pad_to",
    "add",
    "sub",
    "mul",
    "differentiate",
    "evaluate",
    "evaluate_derivative",
    "expand_exppoly",
]

CACHE_SIZE = 256


class _Value:
    """Base of the package's immutable values, compared by their fields.

    ``_fields`` names the constructor arguments in order; ``__slots__``
    holds them and the tables derived from them.  The shared constructor
    stores the fields as given; a class that checks or derives anything
    writes its own with the checkers below, and may bind through this one.
    ``==``, ``hash`` and ``repr`` read the fields alone.  :meth:`_replace`,
    ``copy`` and ``pickle`` build through the constructor, so a copy is
    checked again and derives its own tables.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *args: object, **kwargs: object) -> None:
        """Store the fields given by position or keyword; like a written-out
        signature, raise ``TypeError`` if one is missing, unknown or given
        twice, or if there are too many positional arguments."""
        fields = self._fields
        count = len(args) + len(kwargs)
        kwargs.update(zip(fields, args))
        if len(kwargs) < count or kwargs.keys() != set(fields):
            raise TypeError(
                f"{type(self).__name__}() takes {fields}, got {count} for {tuple(kwargs)}"
            )
        for name in fields:
            object.__setattr__(self, name, kwargs[name])

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def _replace(self, /, **changes: object):
        """Copy with the named fields changed, built by the constructor."""
        return type(self)(**dict(zip(self._fields, self._values()), **changes))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"cannot set or delete {name!r}: the value is immutable")

    __delattr__ = __setattr__

    def __reduce__(self) -> tuple:
        return type(self), self._values()


class Series(_Value):
    """Coefficients ``c_0 .. c_W`` of a power series truncated at degree W.

    Constructing one validates its input: coefficients become floats, and
    empty or non-finite input raises ``ValueError``.  Results of the ring
    operations skip that check (see the module docstring); their
    finiteness is checked once per correction by the iteration engine.
    """

    __slots__ = _fields = ("coeffs",)

    def __init__(self, coeffs: Sequence[float]) -> None:
        object.__setattr__(self, "coeffs", coeffs)
        # looked up at each call, so a method patched onto the class runs
        self.__post_init__()

    def __post_init__(self) -> None:
        coeffs = _checked(_numbers, "coeffs", self.coeffs)
        if len(coeffs) == 0:
            raise ValueError("a series needs at least one coefficient")
        if not all(math.isfinite(c) for c in coeffs):
            raise ValueError("series coefficients must be finite")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def truncation(self) -> int:
        """Highest retained degree W."""
        return len(self.coeffs) - 1


# Each check returns its input, converted where it can be, and notes a
# fault in ``errors``; a constructor raises once with every note.
def _integer(name: str, value: object, errors: list[str]) -> object:
    try:
        if int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    errors.append(f"{name} must be an integer, got {value!r}")
    return value


def _count(name: str, value: object, errors: list[str]) -> object:
    count = _integer(name, value, errors)
    if isinstance(count, int) and count < 0:
        errors.append(f"{name} must be non-negative, got {count}")
    return count


def _number(name: str, value: object, errors: list[str]) -> object:
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        errors.append(f"{name} must be a number, got {value!r}")
        return value


def _numbers(name: str, values: object, errors: list[str]) -> object:
    try:
        return tuple([float(v) for v in values])
    except (TypeError, ValueError, OverflowError):
        errors.append(f"{name} must be a sequence of numbers, got {values!r}")
        return values


def _typed(name: str, value: object, kind: type, errors: list[str]) -> object:
    if not isinstance(value, kind):
        errors.append(f"{name} must be {kind.__name__}, got {value!r}")
    return value


def _entries(name: str, values: object, kind: type, errors: list[str]) -> tuple:
    try:
        entries = tuple(values)
    except TypeError:
        errors.append(f"{name} must be iterable, got {values!r}")
        return ()
    for entry in entries:
        if not isinstance(entry, kind):
            errors.append(f"each of {name} must be {kind.__name__}, got {entry!r}")
    return entries


def _raise(errors: list[str]) -> None:
    """Raise one ``ValueError`` joining the faults noted, if there are any."""
    if errors:
        raise ValueError("; ".join(errors))


def _checked(check: Callable, name: str, value: object, *args: object) -> object:
    """Run one checker on ``value`` and return its result, or raise its fault."""
    errors: list[str] = []
    value = check(name, value, *args, errors)
    _raise(errors)
    return value


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
    errors: list[str] = []
    values = _numbers("coeffs", coeffs, errors)
    truncation = _count("truncation", truncation, errors)
    _raise(errors)
    if len(values) > truncation + 1:
        raise ValueError(
            f"{len(values)} coefficients exceed truncation degree {truncation}"
        )
    return Series(values + (0.0,) * (truncation + 1 - len(values)))


def pad_to(f: Series, truncation: int) -> Series:
    """Re-embed ``f`` in a ring of higher truncation degree (exact)."""
    truncation = _checked(_count, "truncation", truncation)
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


def mul(f: Series, g: Series) -> Series:
    """Cauchy product truncated at the common degree.

    Only the nonzero rows ``f_i * g`` are added, so zero coefficients of the
    first operand cost nothing (a float is false exactly when it equals
    0.0, so a NaN row still runs).  Four adjacent nonzero rows go in one
    pass over the output, and every other nonzero row goes alone.  Every
    output coefficient starts from +0.0 and gets its terms ``f_i * g_(k-i)``
    one at a time in ascending ``i``, so the result has the bits of the
    one-row-per-pass loop.
    """
    _check_same_ring(f, g)
    fc = f.coeffs
    gc = g.coeffs
    n = len(fc)
    out = [0.0] * n
    rows = compress(range(n), fc)
    for i in rows:
        a = fc[i]
        if i + 3 < n and fc[i + 1] and fc[i + 2] and fc[i + 3]:
            b = fc[i + 1]
            c = fc[i + 2]
            d = fc[i + 3]
            next(rows)
            next(rows)
            next(rows)
            g0 = gc[0]
            g1 = gc[1]
            g2 = gc[2]
            out[i] += a * g0
            out[i + 1] = out[i + 1] + a * g1 + b * g0
            out[i + 2] = out[i + 2] + a * g2 + b * g1 + c * g0
            for k in range(i + 3, n):
                g3 = gc[k - i]
                out[k] = out[k] + a * g3 + b * g2 + c * g1 + d * g0
                g0 = g1
                g1 = g2
                g2 = g3
        else:
            for j in range(n - i):
                out[i + j] += a * gc[j]
    return _trusted(tuple(out))


def differentiate(f: Series, order: int) -> Series:
    """Formal ``order``-fold derivative, kept in the same ring.

    Degrees above ``W - order`` of the result are zero; the top
    coefficients of ``f`` carry no information about the derivative there.
    Order 0 returns ``f`` itself: a series is immutable, so it can be shared.
    """
    # an int order skips the full check: the engine derives every tangent here
    if order.__class__ is not int or order < 0:
        order = _checked(_count, "order", order)
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


def _horner(coeffs: Sequence[float], x: float) -> float:
    """``sum(coeffs[k] * x**k)`` by Horner's rule, from +0.0 at the top."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def evaluate(f: Series, x: float) -> float:
    """Horner evaluation of the truncated polynomial at ``x``."""
    return _horner(f.coeffs, x)


def evaluate_derivative(f: Series, order: int, x: float) -> float:
    """Value of the ``order``-th formal derivative at finite ``x``.

    Horner's rule runs over ``f.coeffs[k + order] * fall_k`` for k from
    ``W - order`` down to 0, without building the derivative series.  The
    derivative's top ``order`` coefficients are zeros, which would leave
    the accumulator at +0.0 for any finite ``x``, so skipping them gives
    the bits of :func:`evaluate` on :func:`differentiate`.
    """
    if order.__class__ is not int or order < 0:
        order = _checked(_count, "order", order)
    if order == 0:
        return evaluate(f, x)
    falls = _falling_factorials(order, f.truncation)
    acc = 0.0
    for c, fall in zip(reversed(f.coeffs[order:]), reversed(falls)):
        acc = acc * x + c * fall
    return acc


class ExpTerm(_Value):
    """One ``exp(rate * x) * polynomial`` term."""

    __slots__ = _fields = ("rate", "poly")

    def __init__(self, rate: float, poly: Sequence[float]) -> None:
        errors: list[str] = []
        rate = _number("rate", rate, errors)
        poly = _numbers("poly", poly, errors)
        _raise(errors)
        if len(poly) == 0:
            raise ValueError("exponential-polynomial term needs a polynomial part")
        if not math.isfinite(rate) or not all(math.isfinite(c) for c in poly):
            raise ValueError("exponential-polynomial data must be finite")
        object.__setattr__(self, "rate", rate)
        object.__setattr__(self, "poly", poly)


class ExpPoly(_Value):
    """Finite sum of exponential-polynomial terms."""

    __slots__ = ("terms", "_expansion")
    _fields = ("terms",)

    def __init__(self, terms: Sequence[ExpTerm]) -> None:
        # a tuple keeps the value hashable, so the specs that hold it are too
        terms = _checked(_entries, "terms", terms, ExpTerm)
        object.__setattr__(self, "terms", terms)
        # degree -> Series, filled by expand_exppoly
        object.__setattr__(self, "_expansion", {})

    @classmethod
    def from_terms(cls, terms: Sequence[tuple[float, Sequence[float]]]) -> "ExpPoly":
        return cls(tuple(ExpTerm(rate, poly) for rate, poly in terms))

    def evaluate(self, x: float) -> float:
        """Direct evaluation, independent of any series truncation."""
        total = 0.0
        for term in self.terms:
            total += math.exp(term.rate * x) * _horner(term.poly, x)
        return total


def expand_exppoly(e: ExpPoly, truncation: int) -> Series:
    """Taylor coefficients of ``e`` about 0, truncated at ``truncation``.

    For a term ``exp(a*x) * sum(p_j x**j)`` the degree-n coefficient is
    ``sum_j p_j * a**(n-j) / (n-j)!``; the exponential weights are built by
    the running recurrence ``a**k / k!`` so nothing large is ever formed.
    The sum starts from +0.0 and runs over the terms in order and, within a
    term, over ascending j, skipping zero ``p_j``.  That order does not
    depend on the truncation, so a slice of the highest series in ``e``'s
    table has the bits of one computed at the lower degree.  ExpPoly
    equality treats 0.0 and -0.0 alike; both expand to the same bits,
    because a zero rate gives zero weights past degree 0, a zero ``p_j`` is
    skipped, and +0.0 plus a zero of either sign is +0.0.
    """
    # an int degree skips the full check: the solver asks for every expansion here
    if truncation.__class__ is not int or truncation < 0:
        truncation = _checked(_count, "truncation", truncation)
    table = e._expansion
    series = table.get(truncation)
    if series is not None:
        return series
    top = max(table, default=-1)
    if truncation < top:
        series = _trusted(table[top].coeffs[: truncation + 1])
    else:
        out = [0.0] * (truncation + 1)
        for term in e.terms:
            weights = [1.0]
            for k in range(1, truncation + 1):
                weights.append(weights[-1] * term.rate / k)
            for j, p in enumerate(term.poly):
                if p == 0.0:
                    continue
                for n in range(j, truncation + 1):
                    out[n] += p * weights[n - j]
        series = _trusted(tuple(out))
    table[truncation] = series
    return series
