"""Truncated power-series arithmetic and exponential-polynomial expansion.

A :class:`Series` holds the coefficients ``c_0 .. c_W`` of a polynomial
``sum(c_k * x**k)`` truncated at a fixed degree ``W``.  Values are immutable,
so they can be shared: a derivative of order 0 is its series itself, and
every other operation returns a new series.  Binary operations refuse
operands whose truncation degrees disagree, so a computation can never
silently mix rings.  :func:`evaluate_derivative` reads a derivative's value
straight from the coefficients and builds no series.

Validation happens where data enters, with the field checkers defined
here that every checked value of the package shares, ``_count`` (an
integer of at least 0) among them.  Every number the package takes in
passes ``_number`` or ``_numbers``, which convert to float and hold the
one rule for it: a number must be finite.  Each notes one fault for a nan
or an infinity, naming the field and its first value that is not finite
(``rate must be finite, got nan``, ``each of coeffs must be finite, got
inf``), so an input number is a finite float or a fault; values the
program computes are checked where they are computed.  ``Series(...)``
also rejects empty input, and :func:`make_series` wraps the values it has
checked.  A checker notes its fault in a list and returns its argument,
converted where it can be, so a constructor collects the faults of every
field; ``_raise`` raises them all as one :class:`InvalidProblemError`, a
``ValueError`` that lists them in ``errors``, and ``_checked`` runs one
checker on a single argument and raises the same way.
:class:`InvalidProblemError` is the package's one type for bad input: a
fault found outside the checkers, such as an empty series or operands of
two truncation degrees, raises it with one entry in ``errors``, and so do
the problem-file parser and the command line.  Each
ring operation is one function on coefficient tuples that trusts its
operands: :func:`_sum`, :func:`_product`, which takes its first operand's
zero count from a caller that has it, :func:`_derivative`, and
:func:`_derivative_values`, which reads one derivative's value at one
point from each of several tuples.  The public :func:`add`, :func:`mul`,
:func:`differentiate` and :func:`evaluate_derivative` are shells over them:
they check their arguments and wrap the result through :func:`_trusted`
without re-checking it, so an overflow inside the arithmetic propagates as
``inf``/``nan``.  :mod:`vihpm.engine` and :mod:`vihpm.solver` call the tuple
functions directly and wrap only the values that leave them.
:func:`vihpm.engine.iterate` checks each correction once for finiteness, so
no non-finite series reaches the solver or a printed table.

:func:`mul` gives the bits of the loop that adds one nonzero row of its
first operand per pass, and runs a four-row form of that loop.  The ring's
hot work comes in kinds of straight-line code, each declared with the loop
it replaces: the product of a mostly nonzero first operand, the two-row
product of a first operand that is zero past its rows 0 and 1 (a constant
or linear coefficient), sums, derivatives, derivative values of order 1
and up, and the Picard step of :mod:`vihpm.kernel`.  Each kind is a
:class:`_Generated` table, declared by calling the class on the kind's
source with ``@partial(_Generated, loop=...)``, and callers subscript it
by length: its miss handler alone chooses between the two, compiling code
per length up to ``KERNEL_CAP`` coefficients and keeping it, and giving
the declared loop above.  Each function performs the float operations of
its loop in the loop's order, so it gives the loop's bits, but for the
sign of a NaN made from two NaNs, which CPython does not fix between a
float method and its inline float bytecode.  The code of the two products
returns its own result only when that is finite, and its loop's result
otherwise.  A value of order 0 is :func:`_horner` on the coefficients:
its step is one multiply and one add, and a generated form did not pay on
the CLI workload.  :func:`sub`, which no solve calls, stays a loop too.

Tables that depend only on a few integers are cached with a fixed bound
of ``CACHE_SIZE`` entries each: the falling factorials here, the kernel
weights of :mod:`vihpm.kernel`, and the He polynomial picks, each
factor's tangent chain orders and the tangent seeds of :mod:`vihpm.engine`
(``_picks``, ``_rests`` and ``_seed``).  A generated kind holds at most
one function per length up to the cap, each compiled on first use, none
at import.
Each :class:`ExpPoly` owns its expansion table, which lives as long as the
value does and keeps the series returned at each degree.  A degree below
the highest one held is a slice; a higher one is computed afresh, so
:func:`vihpm.engine.iterate` asks for its top ring before its corrections.
An expansion's exponential weights stop at their first zero, so a term of
rate 0 costs one pass over its polynomial, not one per degree.

:class:`ExpPoly` represents a finite sum of ``exp(rate * x) * p(x)`` terms
with polynomial ``p``.  It is the closed function class used for forcing
terms and reference solutions, and :func:`expand_exppoly` projects it into
the series ring.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial
from itertools import compress, filterfalse
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
# the longest operand, in coefficients, that runs generated code
KERNEL_CAP = 64


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
    non-finite ones or empty input raise :class:`InvalidProblemError`.  Results of the ring operations skip that check (see
    the module docstring); their finiteness is checked once per correction
    by the iteration engine.
    """

    __slots__ = _fields = ("coeffs",)

    def __init__(self, coeffs: Sequence[float]) -> None:
        object.__setattr__(self, "coeffs", coeffs)
        # looked up at each call, so a method patched onto the class runs
        self.__post_init__()

    def __post_init__(self) -> None:
        coeffs = _checked(_numbers, "coeffs", self.coeffs)
        if len(coeffs) == 0:
            raise InvalidProblemError(["a series needs at least one coefficient"])
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
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        errors.append(f"{name} must be a number, got {value!r}")
        return value
    if not math.isfinite(number):
        errors.append(f"{name} must be finite, got {number!r}")
    return number


def _numbers(name: str, values: object, errors: list[str]) -> object:
    try:
        numbers = tuple([float(v) for v in values])
    except (TypeError, ValueError, OverflowError):
        errors.append(f"{name} must be a sequence of numbers, got {values!r}")
        return values
    bad = next(filterfalse(math.isfinite, numbers), None)
    if bad is not None:
        errors.append(f"each of {name} must be finite, got {bad!r}")
    return numbers


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


class InvalidProblemError(ValueError):
    """Input violates a structural invariant; carries all violations."""

    def __init__(self, errors: Sequence[str]) -> None:
        self.errors = tuple(errors)
        super().__init__("; ".join(errors))

    def __reduce__(self) -> tuple:
        # copied and unpickled through the constructor's own arguments,
        # not the joined message that ``args`` holds
        return type(self), (self.errors,), self.__dict__


def _raise(faults: list[str]) -> None:
    """Raise one :class:`InvalidProblemError` with the faults noted, if
    there are any."""
    if faults:
        raise InvalidProblemError(faults)


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
        raise InvalidProblemError(
            [f"{len(values)} coefficients exceed truncation degree {truncation}"]
        )
    return _trusted(values + (0.0,) * (truncation + 1 - len(values)))


def pad_to(f: Series, truncation: int) -> Series:
    """Re-embed ``f`` in a ring of higher truncation degree (exact)."""
    truncation = _checked(_count, "truncation", truncation)
    if truncation < f.truncation:
        raise InvalidProblemError(["padding cannot lower the truncation degree"])
    out = [0.0] * (truncation + 1)
    out[: len(f.coeffs)] = f.coeffs
    return _trusted(tuple(out))


def _check_same_ring(f: Series, g: Series) -> None:
    if len(f.coeffs) != len(g.coeffs):
        raise InvalidProblemError([f"truncation mismatch: {f.truncation} vs {g.truncation}"])


class _Generated(dict):
    """A kind of generated code: a table from a length ``n`` to the
    function ``source`` writes for ``n``-coefficient tuples, declared with
    ``loop``, the function it replaces, which takes the same arguments and
    gives the same bits.

    A kind is declared by decorating its ``source`` with
    ``@partial(_Generated, loop=...)``, so the table takes the source's
    name.  ``kind[n]`` is a plain dict hit once ``n`` is compiled.  On a
    miss, :meth:`__missing__` compiles and keeps the function for an
    ``n`` of at most ``KERNEL_CAP``, and gives ``loop`` for a larger ``n``
    without keeping it, so ``len(kind)`` counts compiles and ``n in kind``
    tells whether ``n`` has been compiled.  The miss handler is the one
    place the package generates code or chooses between code and a loop,
    and the one code that reads the cap.
    """

    __slots__ = ("source", "loop")

    def __init__(self, source: Callable, loop: Callable) -> None:
        self.source, self.loop = source, loop

    def __missing__(self, n: int) -> Callable:
        """Compile and keep the function for ``n`` up to the cap; above it,
        ``loop``.  ``source(n)`` gives the parameters and the statements of
        the function.  Every parameter but ``x`` is an ``n``-coefficient
        tuple, unpacked first into locals named after it and the index
        (``f0, f1, ...``), so each term reads locals alone.  The statements
        may call ``loop`` and ``isfinite``."""
        if n > KERNEL_CAP:
            return self.loop
        params, body = self.source(n)
        name = self.source.__name__
        text = "\n".join([
            f"def {name}({params}):",
            *[
                f"    [{''.join([f'{p}{i}, ' for i in range(n)])}] = {p}"
                for p in params.split(", ")
                if p != "x"
            ],
            *[f"    {line}" for line in body],
        ])
        namespace = {"loop": self.loop, "isfinite": math.isfinite}
        exec(compile(text, f"<{self.source.__module__}.{name}, n={n}>", "exec"), namespace)
        function = self[n] = namespace[name]
        return function


def _returning(terms: list[str], result: str = "out") -> list[str]:
    """Statements that bind the tuple of ``terms`` to ``out``, a line for
    each term, and return ``result``."""
    return ["out = (", *[f"    {term}," for term in terms], ")", f"return {result}"]


# what a product's code returns: its own result while that is finite,
# and otherwise its loop's, which skips the zero rows the code adds
_FINITE_OR_LOOP = "out if isfinite(sum(out)) else loop(f, g)"


def add(f: Series, g: Series) -> Series:
    """Coefficient-wise sum at equal truncation."""
    _check_same_ring(f, g)
    return _trusted(_sum(f.coeffs, g.coeffs))


def _sum(fc: tuple[float, ...], gc: tuple[float, ...]) -> tuple[float, ...]:
    """The sum of two coefficient tuples of one length."""
    return _add_kernel[len(fc)](fc, gc)


@partial(_Generated, loop=lambda f, g: tuple([*map(_fadd, f, g)]))
def _add_kernel(n: int) -> tuple[str, list[str]]:
    """``(f0 + g0, f1 + g1, ...)``, the sum :func:`add` runs."""
    return "f, g", _returning([f"f{i} + g{i}" for i in range(n)])


def sub(f: Series, g: Series) -> Series:
    """Coefficient-wise difference at equal truncation."""
    _check_same_ring(f, g)
    return _trusted(tuple([*map(_fsub, f.coeffs, g.coeffs)]))


def mul(f: Series, g: Series) -> Series:
    """Cauchy product truncated at the common degree.

    Every output coefficient starts from +0.0 and gets its terms
    ``f_i * g_(k-i)`` one at a time in ascending ``i``, and the zero rows of
    the first operand are skipped, so the result has the bits of the
    one-row-per-pass loop.  A first operand with more nonzero than zero
    coefficients goes through :func:`_kernel`.  Its code adds the zero
    rows' ``0 * g_j`` to an accumulator that is never -0.0; while ``g_j`` is
    finite that is a zero of either sign and changes nothing, so the code
    returns a result whose sum is finite.  Any other result is dropped: a
    zero row meeting an infinite or NaN ``g_j`` gives NaN where the loop
    skips the row, and a NaN's sign can differ between freshly compiled
    code and warm code.  A first operand that is zero past its rows 0 and
    1, as a constant or linear coefficient is, goes through the two-row
    product of :func:`_line_kernel` on the same terms: row 0's term, then
    row 1's, after the +0.0, and its code too returns its result only when
    finite.  Both are declared with the row loop of :func:`_rows`: their
    code runs it in place of a dropped result, and above ``KERNEL_CAP``
    each kind is that loop, whose result is returned as it is.  Every other
    product runs the loop too.
    """
    _check_same_ring(f, g)
    return _trusted(_product(f.coeffs, g.coeffs))


def _product(
    fc: tuple[float, ...], gc: tuple[float, ...], zeros: int | None = None
) -> tuple[float, ...]:
    """The product :func:`mul` describes, of two coefficient tuples of one
    length.  It chooses the kind of product and returns what the kind gives
    for the length, code or loop, with no check of its own.  ``zeros`` is
    ``fc.count(0.0)``, given by a caller that has counted it already and
    counted here otherwise.  The two-row shape is tested only when the
    dense test has failed, in O(1) past the zero count, so a dense product
    pays nothing for it and a tangent seed ``x**j`` one comparison."""
    n = len(fc)
    if zeros is None:
        zeros = fc.count(0.0)
    if 2 * zeros < n:
        return _kernel[n](fc, gc)
    if n > 1 and zeros - (fc[0] == 0.0) - (fc[1] == 0.0) == n - 2:
        return _line_kernel[n](fc, gc)
    return _rows(fc, gc)


def _rows(fc: tuple[float, ...], gc: tuple[float, ...]) -> tuple[float, ...]:
    """The Cauchy product of two coefficient tuples of one length, by rows.

    Only the nonzero rows ``f_i * g`` are added, so zero coefficients of the
    first operand cost nothing (a float is false exactly when it equals
    0.0, so a NaN row still runs).  Four adjacent nonzero rows go in one
    pass over the output, and every other nonzero row goes alone; each
    output still gets its terms in ascending row order.
    """
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
    return tuple(out)


@partial(_Generated, loop=_rows)
def _kernel(n: int) -> tuple[str, list[str]]:
    """The Cauchy product of two ``n``-coefficient tuples as straight-line
    code, built from integer indices alone.

    It builds ``(0.0 + f0 * g0, 0.0 + f0 * g1 + f1 * g0, ...)``, with
    every term in ascending row order, as the row loop adds them, and
    returns it when its sum is finite and the row loop's result otherwise.
    Each term has a source line of its own, which keeps the code object's
    location table short.
    """
    return "f, g", _returning([
        "0.0 + " + "\n    + ".join([f"f{i} * g{k - i}" for i in range(k + 1)])
        for k in range(n)
    ], _FINITE_OR_LOOP)


@partial(_Generated, loop=_rows)
def _line_kernel(n: int) -> tuple[str, list[str]]:
    """The Cauchy product of two ``n``-coefficient tuples whose first
    operand is zero past its rows 0 and 1, as straight-line code:
    ``(0.0 + f0 * g0, 0.0 + f0 * g1 + f1 * g0, ...)``, row 0's term before
    row 1's, as the row loop adds them, returned when its sum is finite
    and replaced by the row loop's result otherwise."""
    return "f, g", _returning(
        ["0.0 + f0 * g0"] + [f"0.0 + f0 * g{k} + f1 * g{k - 1}" for k in range(1, n)],
        _FINITE_OR_LOOP,
    )


def differentiate(f: Series, order: int) -> Series:
    """Formal ``order``-fold derivative, kept in the same ring.

    Degrees above ``W - order`` of the result are zero; the top
    coefficients of ``f`` carry no information about the derivative there.
    Order 0 returns ``f`` itself: a series is immutable, so it can be shared.
    """
    order = _checked(_count, "order", order)
    return f if order == 0 else _trusted(_derivative(f.coeffs, order))


def _derivative(fc: tuple[float, ...], order: int) -> tuple[float, ...]:
    """The derivative :func:`differentiate` describes, of a coefficient
    tuple; order 0 returns ``fc`` itself."""
    if order == 0:
        return fc
    falls = _falling_factorials(order, len(fc) - 1)
    coeffs = fc[order:]
    out = _derivative_kernel[len(coeffs)](coeffs, falls)
    return out + (0.0,) * (len(fc) - len(out))


@partial(_Generated, loop=lambda c, w: tuple(map(_fmul, c, w)))
def _derivative_kernel(n: int) -> tuple[str, list[str]]:
    """``(c0 * w0, c1 * w1, ...)``: the derivative's coefficients below its
    zeros, from the coefficients ``c`` above the order and the falling
    factorials ``w``."""
    return "c, w", _returning([f"c{i} * w{i}" for i in range(n)])


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
    """Value of the ``order``-th formal derivative at finite ``x``, with the
    bits of :func:`evaluate` on :func:`differentiate`.  Order 1 and up runs
    Horner over ``f.coeffs[k + order] * fall_k`` for k from ``W - order``
    down to 0 without building the derivative: its top ``order`` zeros
    would leave the accumulator at +0.0 for finite ``x``.
    """
    order = _checked(_count, "order", order)
    return _derivative_values((f.coeffs,), order, x)[0]


def _derivative_values(
    fcs: Sequence[tuple[float, ...]], order: int, x: float
) -> list[float]:
    """The value :func:`evaluate_derivative` describes, of each of the
    coefficient tuples ``fcs``, all of one length and at least one:
    :func:`_horner_kernel` for order 1 and up, code or loop as the kind
    gives for the length, and :func:`_horner` for order 0.  The falling
    factorials and the function are looked up once for all the tuples."""
    # loops, not comprehensions: a comprehension is a call of its own on
    # CPython 3.11, and the residual passes a single tuple
    values = []
    if order == 0:
        for fc in fcs:
            values.append(_horner(fc, x))
        return values
    falls = _falling_factorials(order, len(fcs[0]) - 1)
    horner = _horner_kernel[len(falls)]
    for fc in fcs:
        values.append(horner(fc[order:], falls, x))
    return values


@partial(_Generated, loop=lambda c, w, x: _horner(tuple(map(_fmul, c, w)), x))
def _horner_kernel(n: int) -> tuple[str, list[str]]:
    """Horner's rule at ``x`` on ``c_k * w_k``, the value
    :func:`evaluate_derivative` reads: from ``acc = 0.0`` at the top down to
    degree 0, one statement per coefficient, as :func:`_horner` over the
    products runs it."""
    return "c, w, x", [
        "acc = 0.0",
        *[f"acc = acc * x + c{k} * w{k}" for k in reversed(range(n))],
        "return acc",
    ]


class ExpTerm(_Value):
    """One ``exp(rate * x) * polynomial`` term."""

    __slots__ = _fields = ("rate", "poly")

    def __init__(self, rate: float, poly: Sequence[float]) -> None:
        errors: list[str] = []
        rate = _number("rate", rate, errors)
        poly = _numbers("poly", poly, errors)
        _raise(errors)
        if len(poly) == 0:
            raise InvalidProblemError(["exponential-polynomial term needs a polynomial part"])
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
    The recurrence stops at its first weight of exactly 0.0, and each
    ``p_j`` runs over the weights held: every later weight is a zero too,
    and ``p_j`` times it would add a zero of either sign, which leaves the
    sum as it is.  So a rate of 0 expands in O(len(p)).
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
                weight = weights[-1] * term.rate / k
                if weight == 0.0:
                    break
                weights.append(weight)
            for j, p in enumerate(term.poly):
                if p == 0.0:
                    continue
                for n in range(j, min(j + len(weights), truncation + 1)):
                    out[n] += p * weights[n - j]
        series = _trusted(tuple(out))
    table[truncation] = series
    return series
