"""Boundary value problem descriptions, validation, file format, built-ins.

A problem is the normal form ``u^(m)(x) = F(u)(x)`` on ``[0, b]`` where F is
a sum of terms, each an exponential-polynomial coefficient times a product
of derivatives of u (an empty product makes the term pure forcing), subject
to exactly m point conditions ``u^(d)(point) = value``.  Every value is
immutable, so specs can be shared freely across solver runs.

A :class:`ProblemSpec` is valid by construction: it runs :func:`validate`
on itself and raises :class:`InvalidProblemError` with every violation, or
naming each field of the wrong type or, for a number, not finite, which is
raised before :func:`validate` runs.  Parsed (the built-ins too), directly
built specs and their copies all pass through that one check, so the solver
never re-checks.  The field checkers are :mod:`vihpm.series`'s, as for every
checked value of the package, and so is :class:`InvalidProblemError`, which
this module re-exports: every checked value raises the faults it collects
as one.  A problem file that does not parse raises
:class:`ProblemFormatError`, an :class:`InvalidProblemError` whose one
fault names its line.  The cap on the series degree W + k*m is one
checker here, ``_within_degree_cap``, which :func:`validate` runs on
``iterations`` and :mod:`vihpm.engine` and :mod:`vihpm.diagnostics` on a
count of their own.
A term is plain data, its coefficient and factors; the tables the solver
needs from the factors are :mod:`vihpm.engine`'s.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .series import (
    ExpPoly, ExpTerm, InvalidProblemError, _entries, _horner, _integer, _number, _raise, _typed,
    _Value,
)

__all__ = [
    "BoundaryCondition",
    "RhsTerm",
    "ProblemSpec",
    "ProblemFormatError",
    "InvalidProblemError",
    "parse_problem",
    "builtin",
    "BUILTIN_COUNT",
    "MAX_SERIES_DEGREE",
]

# bounds the work a problem can request: every series product costs
# O(degree**2), and the k-th correction lives at truncation + k * order
MAX_SERIES_DEGREE = 1000


def _within_degree_cap(name: str, count: int, spec: ProblemSpec, errors: list[str]) -> int:
    """Note a fault if ``count`` corrections of ``spec`` reach a series
    degree W + count * m above ``MAX_SERIES_DEGREE``; return ``count``."""
    top = spec.truncation + count * spec.order
    if top > MAX_SERIES_DEGREE:
        errors.append(f"{name} {count} reaches series degree {top}, above {MAX_SERIES_DEGREE}")
    return count


class ProblemFormatError(InvalidProblemError):
    """Problem file could not be parsed; carries the offending line number,
    and its one fault reads ``line N: ...``."""

    def __init__(self, line_number: int, message: str) -> None:
        self.line_number = line_number
        super().__init__([f"line {line_number}: {message}"])

    def __reduce__(self) -> tuple:
        message = self.errors[0].removeprefix(f"line {self.line_number}: ")
        return type(self), (self.line_number, message), self.__dict__


class BoundaryCondition(_Value):
    """Condition ``u^(derivative_order)(point) = value``."""

    __slots__ = _fields = ("point", "derivative_order", "value")

    def __init__(self, point: float, derivative_order: int, value: float) -> None:
        errors: list[str] = []
        point = _number("point", point, errors)
        derivative_order = _integer("derivative order", derivative_order, errors)
        value = _number("value", value, errors)
        _raise(errors)
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "derivative_order", derivative_order)
        object.__setattr__(self, "value", value)


class RhsTerm(_Value):
    """One right-hand-side term ``coeff(x) * prod_i u^(d_i)(x)``.

    ``factors`` lists the derivative orders d_1..d_r of the product; empty
    factors mean the term is a pure forcing function.
    """

    __slots__ = _fields = ("coeff", "factors")

    def __init__(self, coeff: ExpPoly, factors: Iterable[int] = ()) -> None:
        errors: list[str] = []
        _typed("coeff", coeff, ExpPoly, errors)
        factors = _entries("factors", factors, object, errors)
        factors = tuple([_integer("derivative order", d, errors) for d in factors])
        _raise(errors)
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "factors", factors)


class ProblemSpec(_Value):
    """Full description of one boundary value problem instance.

    ``truncation`` is the working series degree W of the initial
    approximation stage; ``iterations`` the number of correction passes.
    ``exact`` optionally carries a closed-form reference solution.
    Construction turns an integral ``order``, ``truncation`` or
    ``iterations`` into an int and ``domain_end`` into a finite float, and
    raises :class:`InvalidProblemError` naming each field of the wrong type
    or not finite, or else listing every violation that :func:`validate`
    finds.  A valid spec then computes its origin and off-origin
    conditions, its unknown degrees and ``_origin_head``, the first
    ``order`` Taylor coefficients ``value / j!`` that its origin conditions
    pin (zero at the unknown degrees), once, so the solver's every Newton
    pass reads the same tables instead of rebuilding them; a copy computes
    its own.
    """

    _fields = (
        "order", "domain_end", "terms", "bcs", "exact", "truncation", "iterations"
    )
    __slots__ = _fields + ("_origin", "_origin_head", "_off_origin", "_unknown_degrees")

    def __init__(
        self,
        order: int,
        domain_end: float,
        terms: Iterable[RhsTerm],
        bcs: Iterable[BoundaryCondition],
        exact: ExpPoly | None = None,
        truncation: int = 12,
        iterations: int = 1,
    ) -> None:
        errors: list[str] = []
        super().__init__(
            _integer("order", order, errors),
            _number("domain_end", domain_end, errors),
            _entries("terms", terms, RhsTerm, errors),
            _entries("bcs", bcs, BoundaryCondition, errors),
            exact if exact is None else _typed("exact", exact, ExpPoly, errors),
            _integer("truncation", truncation, errors),
            _integer("iterations", iterations, errors),
        )
        _raise(errors or validate(self))
        # derived from the fields once; plain attributes, so ==, hash and
        # repr still see the fields alone
        origin = tuple([bc for bc in self.bcs if bc.point == 0.0])
        pinned = {bc.derivative_order for bc in origin}
        head = [0.0] * self.order
        for bc in origin:
            j = bc.derivative_order
            head[j] = bc.value / math.factorial(j)
        object.__setattr__(self, "_origin", origin)
        object.__setattr__(self, "_origin_head", tuple(head))
        object.__setattr__(
            self, "_off_origin", tuple([bc for bc in self.bcs if bc.point != 0.0])
        )
        object.__setattr__(
            self,
            "_unknown_degrees",
            tuple([j for j in range(self.order) if j not in pinned]),
        )

    def origin_conditions(self) -> tuple[BoundaryCondition, ...]:
        return self._origin

    def off_origin_conditions(self) -> tuple[BoundaryCondition, ...]:
        return self._off_origin

    def unknown_degrees(self) -> tuple[int, ...]:
        """Degrees below ``order`` not pinned by an origin condition.

        The initial approximation fixes coefficient j for each origin
        condition of derivative order j; the remaining degrees, ascending,
        receive the free constants.
        """
        return self._unknown_degrees

    def unknown_count(self) -> int:
        return len(self._unknown_degrees)


def validate(spec: ProblemSpec) -> list[str]:
    """Collect every invariant violation; an empty list means valid.

    :class:`ProblemSpec` calls it on every new instance.
    """
    errors: list[str] = []
    m = spec.order
    if m < 1:
        errors.append(f"operator order must be at least 1, got {m}")
        return errors
    if spec.domain_end <= 0.0:
        errors.append(f"domain end must be positive, got {spec.domain_end}")
    if spec.truncation < m:
        errors.append(
            f"truncation degree {spec.truncation} is below operator order {m}"
        )
    if spec.iterations < 1:
        errors.append(f"iteration count must be at least 1, got {spec.iterations}")
    _within_degree_cap("iterations", spec.iterations, spec, errors)
    if len(spec.bcs) != m:
        errors.append(f"expected {m} boundary conditions, found {len(spec.bcs)}")
    seen: set[tuple[float, int]] = set()
    for bc in spec.bcs:
        if not (0 <= bc.derivative_order < m):
            errors.append(
                f"boundary condition derivative order {bc.derivative_order} "
                f"outside 0..{m - 1}"
            )
        if not (0.0 <= bc.point <= spec.domain_end):
            errors.append(
                f"boundary condition point {bc.point} outside "
                f"[0, {spec.domain_end}]"
            )
        key = (bc.point, bc.derivative_order)
        if key in seen:
            errors.append(
                f"duplicate boundary condition at point {bc.point}, "
                f"derivative order {bc.derivative_order}"
            )
        seen.add(key)
    for term in spec.terms:
        for d in term.factors:
            if not (0 <= d < m):
                errors.append(
                    f"term factor derivative order {d} outside 0..{m - 1}"
                )
    if spec.exact is not None:
        errors.extend(_exact_overflows(spec.exact, spec.domain_end))
    return errors


def _exact_overflows(exact: ExpPoly, b: float) -> list[str]:
    """Reasons the reference can leave float range on ``[0, b]``.

    The error table evaluates it on that interval, where each term is at
    most ``e^max(0, rate*b) * sum_j |p_j| max(1, b)^j``; a term whose bound
    is not finite is named, and the sum of finite bounds must be finite too.
    """
    errors = []
    reach = max(1.0, b)
    bound = 0.0
    for part in exact.terms:
        size = _horner([abs(c) for c in part.poly], reach)
        try:
            size *= math.exp(max(0.0, part.rate * b))
        except OverflowError:
            size = math.inf
        if not math.isfinite(size):
            line = "exact " + " ".join(map(repr, (part.rate,) + part.poly))
            errors.append(f"exact term '{line}' overflows at x = {b}")
        bound += size
    if not errors and not math.isfinite(bound):
        errors.append(f"exact reference overflows on [0, {b}]")
    return errors


# the token kinds of each line, by keyword, and the message for a wrong
# count; None reads a rate and one or more coefficients, all numbers
_LINES = {
    "order": ((int,), "order takes one integer"),
    "domain": ((float, float), "domain takes two numbers"),
    "truncation": ((int,), "truncation takes one integer"),
    "iterations": ((int,), "iterations takes one integer"),
    "term": (None, "term needs a rate and at least one coefficient"),
    "bc": ((float, int, float), "bc takes point, derivative order, value"),
    "exact": (None, "exact needs a rate and at least one coefficient"),
}


def _parse(kinds: Sequence[type], tokens: Sequence[str], line_number: int) -> list:
    """Convert each token to its kind, ``float`` or ``int``, left to right."""
    values = []
    for kind, token in zip(kinds, tokens):
        try:
            values.append(kind(token))
        except ValueError:
            noun = "a number" if kind is float else "an integer"
            raise ProblemFormatError(line_number, f"not {noun}: {token!r}") from None
    return values


def parse_problem(text: str) -> ProblemSpec:
    """Parse the line-oriented problem format into a (valid) spec.

    Grammar (whitespace-separated tokens, '#' starts a comment; ``m``,
    ``W``, ``n`` and the derivative orders are integers, every other token
    a number; the ``order``, ``domain``, ``truncation`` and ``iterations``
    lines may each appear at most once):

        order <m>
        domain <0> <b>
        truncation <W>                      (optional, default 12)
        iterations <n>                      (optional, default 1)
        term <rate> <c0> <c1> ... [ ; <d1> <d2> ... ]
        bc <point> <derivative_order> <value>
        exact <rate> <c0> <c1> ...          (optional, repeatable, summed)
    """
    settings: dict[str, float] = {}
    terms: list[RhsTerm] = []
    bcs: list[BoundaryCondition] = []
    exact_terms: list[ExpTerm] = []

    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        keyword, *rest = line.split()
        shape = _LINES.get(keyword)
        if shape is None:
            raise ProblemFormatError(line_number, f"unknown keyword {keyword!r}")
        kinds, wrong_count = shape
        tail: list[str] = []
        if keyword == "term" and ";" in rest:
            split = rest.index(";")
            rest, tail = rest[:split], rest[split + 1 :]
        if kinds is None:  # two numbers or more
            kinds = [float] * max(2, len(rest))
        if len(rest) != len(kinds):
            raise ProblemFormatError(line_number, wrong_count)
        values = _parse(kinds, rest, line_number)
        # a condition's or a term's field faults read as this line's
        try:
            if keyword == "bc":
                bcs.append(BoundaryCondition(*values))
            elif keyword in ("term", "exact"):
                part = ExpTerm(values[0], values[1:])
                if keyword == "exact":
                    exact_terms.append(part)
                else:
                    factors = _parse([int] * len(tail), tail, line_number)
                    terms.append(RhsTerm(ExpPoly((part,)), factors))
            else:
                if keyword == "domain" and values[0] != 0.0:
                    raise ProblemFormatError(line_number, "domain must start at 0")
                if keyword in settings:
                    raise ProblemFormatError(line_number, f"duplicate {keyword!r} line")
                settings[keyword] = values[-1]
        except ProblemFormatError:
            raise
        except InvalidProblemError as exc:
            raise ProblemFormatError(line_number, str(exc)) from None

    for keyword in ("order", "domain"):
        if keyword not in settings:
            raise ProblemFormatError(0, f"missing {keyword!r} line")

    # settings holds order, and truncation and iterations if given: an
    # omitted one takes ProblemSpec's default
    return ProblemSpec(
        domain_end=settings.pop("domain"),
        terms=tuple(terms),
        bcs=tuple(bcs),
        exact=ExpPoly(tuple(exact_terms)) if exact_terms else None,
        **settings,
    )


# The four seventh-order benchmarks at the format's default settings, the
# paper's W = 12 and k = 1; each number is the repr of its float.
_BUILTINS = (
    """\
# u^(7) = -exp(x)(35 + 12x + 2x^2) - u, exact u = exp(x)(x - x^2)
order 7
domain 0 1.0
term 1.0 -35.0 -12.0 -2.0
term 0.0 -1.0 ; 0
bc 0.0 0 0.0
bc 1.0 0 0.0
bc 0.0 1 1.0
bc 1.0 1 -2.718281828459045  # -e
bc 0.0 2 0.0
bc 1.0 2 -10.87312731383618  # -4e
bc 0.0 3 -3.0
exact 1.0 0.0 1.0 -1.0
""",
    """\
# u^(7) = exp(-x) u^2, exact u = exp(x)
order 7
domain 0 1.0
term -1.0 1.0 ; 0 0
bc 0.0 0 1.0
bc 0.0 1 1.0
bc 0.0 2 1.0
bc 0.0 3 1.0
bc 1.0 0 2.718281828459045  # e
bc 1.0 1 2.718281828459045  # e
bc 1.0 2 2.718281828459045  # e
exact 1.0 1.0
""",
    """\
# u^(7) = -u u' + exp(x)(-35 - 13x - x^2) + exp(2x)(x - 2x^2 + x^4),
# exact u = exp(x)(x - x^2)
order 7
domain 0 1.0
term 0.0 -1.0 ; 0 1
term 1.0 -35.0 -13.0 -1.0
term 2.0 0.0 1.0 -2.0 0.0 1.0
bc 0.0 0 0.0
bc 1.0 0 0.0
bc 0.0 1 1.0
bc 1.0 1 -2.718281828459045  # -e
bc 0.0 2 0.0
bc 1.0 2 -10.87312731383618  # -4e
bc 0.0 3 -3.0
exact 1.0 0.0 1.0 -1.0
""",
    """\
# u^(7) = u u' + exp(x)(-6 - x) + exp(2x)(x - x^2), exact u = exp(x)(1 - x)
order 7
domain 0 1.0
term 0.0 1.0 ; 0 1
term 1.0 -6.0 -1.0
term 2.0 0.0 1.0 -1.0
bc 0.0 0 1.0
bc 0.5 0 0.8243606353500641  # sqrt(e)/2
bc 0.0 1 0.0
bc 0.5 1 -0.8243606353500641  # -sqrt(e)/2
bc 0.0 2 -1.0
bc 1.0 2 -5.43656365691809  # -2e
bc 1.0 0 0.0
exact 1.0 1.0 -1.0
""",
)
BUILTIN_COUNT = len(_BUILTINS)


def builtin(n: int) -> ProblemSpec:
    """Benchmark problem ``n`` of 1..4, parsed from its text above."""
    if n not in range(1, BUILTIN_COUNT + 1):
        raise InvalidProblemError(
            [f"builtin problem number must be 1..{BUILTIN_COUNT}, got {n!r}"]
        )
    return parse_problem(_BUILTINS[int(n) - 1])


def with_settings(
    spec: ProblemSpec,
    truncation: int | None = None,
    iterations: int | None = None,
) -> ProblemSpec:
    """Copy of ``spec`` with overridden series degree or iteration count."""
    changes = {}
    if truncation is not None:
        changes["truncation"] = truncation
    if iterations is not None:
        changes["iterations"] = iterations
    if not changes:
        return spec
    return spec._replace(**changes)
