"""Boundary value problem descriptions, validation, file format, built-ins.

A problem is the normal form ``u^(m)(x) = F(u)(x)`` on ``[0, b]`` where F is
a sum of terms, each an exponential-polynomial coefficient times a product
of derivatives of u (an empty product makes the term pure forcing), subject
to exactly m point conditions ``u^(d)(point) = value``.  Everything is an
immutable dataclass so specs can be shared freely across solver runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from .series import ExpPoly, ExpTerm

__all__ = [
    "BoundaryCondition",
    "RhsTerm",
    "ProblemSpec",
    "ProblemFormatError",
    "InvalidProblemError",
    "validate",
    "parse_problem",
    "render_problem",
    "builtin",
    "BUILTIN_COUNT",
]

BUILTIN_COUNT = 4


class ProblemFormatError(ValueError):
    """Problem file could not be parsed; carries the offending line number."""

    def __init__(self, line_number: int, message: str) -> None:
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")


class InvalidProblemError(ValueError):
    """Problem violates a structural invariant; carries all violations."""

    def __init__(self, errors: Sequence[str]) -> None:
        self.errors = tuple(errors)
        super().__init__("; ".join(errors))


@dataclass(frozen=True)
class BoundaryCondition:
    """Condition ``u^(derivative_order)(point) = value``."""

    point: float
    derivative_order: int
    value: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "point", float(self.point))
        object.__setattr__(self, "value", float(self.value))


@dataclass(frozen=True)
class RhsTerm:
    """One right-hand-side term ``coeff(x) * prod_i u^(d_i)(x)``.

    ``factors`` lists the derivative orders d_1..d_r of the product; empty
    factors mean the term is a pure forcing function.
    """

    coeff: ExpPoly
    factors: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "factors", tuple(int(d) for d in self.factors))


@dataclass(frozen=True)
class ProblemSpec:
    """Full description of one boundary value problem instance.

    ``truncation`` is the working series degree W of the initial
    approximation stage; ``iterations`` the number of correction passes.
    ``exact`` optionally carries a closed-form reference solution.
    """

    order: int
    domain_end: float
    terms: tuple[RhsTerm, ...]
    bcs: tuple[BoundaryCondition, ...]
    exact: ExpPoly | None = None
    truncation: int = 12
    iterations: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "domain_end", float(self.domain_end))
        object.__setattr__(self, "terms", tuple(self.terms))
        object.__setattr__(self, "bcs", tuple(self.bcs))

    def origin_conditions(self) -> tuple[BoundaryCondition, ...]:
        return tuple(bc for bc in self.bcs if bc.point == 0.0)

    def off_origin_conditions(self) -> tuple[BoundaryCondition, ...]:
        return tuple(bc for bc in self.bcs if bc.point != 0.0)

    def unknown_degrees(self) -> tuple[int, ...]:
        """Degrees below ``order`` not pinned by an origin condition.

        The initial approximation fixes coefficient j for each origin
        condition of derivative order j; the remaining degrees, ascending,
        receive the free constants.
        """
        pinned = {bc.derivative_order for bc in self.origin_conditions()}
        return tuple(j for j in range(self.order) if j not in pinned)

    def unknown_count(self) -> int:
        return len(self.unknown_degrees())


def validate(spec: ProblemSpec) -> list[str]:
    """Collect every invariant violation; an empty list means valid."""
    errors: list[str] = []
    m = spec.order
    if m < 1:
        errors.append(f"operator order must be at least 1, got {m}")
        return errors
    if not math.isfinite(spec.domain_end) or spec.domain_end <= 0.0:
        errors.append(f"domain end must be positive, got {spec.domain_end}")
    if spec.truncation < m:
        errors.append(
            f"truncation degree {spec.truncation} is below operator order {m}"
        )
    if spec.iterations < 1:
        errors.append(f"iteration count must be at least 1, got {spec.iterations}")
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
        if not math.isfinite(bc.value):
            errors.append(f"boundary condition value must be finite, got {bc.value}")
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
    return errors


def _checked(spec: ProblemSpec) -> ProblemSpec:
    errors = validate(spec)
    if errors:
        raise InvalidProblemError(errors)
    return spec


def _parse_floats(tokens: Sequence[str], line_number: int) -> list[float]:
    values = []
    for tok in tokens:
        try:
            values.append(float(tok))
        except ValueError:
            raise ProblemFormatError(line_number, f"not a number: {tok!r}") from None
    return values


def _parse_int(token: str, line_number: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ProblemFormatError(line_number, f"not an integer: {token!r}") from None


def parse_problem(text: str) -> ProblemSpec:
    """Parse the line-oriented problem format and validate the result.

    Grammar (whitespace-separated tokens, '#' starts a comment):

        order <m>
        domain <0> <b>
        truncation <W>                      (optional, default 12)
        iterations <n>                      (optional, default 1)
        term <rate> <c0> <c1> ... [ ; <d1> <d2> ... ]
        bc <point> <derivative_order> <value>
        exact <rate> <c0> <c1> ...          (optional, repeatable, summed)
    """
    order: int | None = None
    domain_end: float | None = None
    truncation = 12
    iterations = 1
    terms: list[RhsTerm] = []
    bcs: list[BoundaryCondition] = []
    exact_terms: list[ExpTerm] = []

    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        keyword, *rest = line.split()
        if keyword == "order":
            if len(rest) != 1:
                raise ProblemFormatError(line_number, "order takes one integer")
            order = _parse_int(rest[0], line_number)
        elif keyword == "domain":
            if len(rest) != 2:
                raise ProblemFormatError(line_number, "domain takes two numbers")
            start, end = _parse_floats(rest, line_number)
            if start != 0.0:
                raise ProblemFormatError(
                    line_number, "domain must start at 0"
                )
            domain_end = end
        elif keyword == "truncation":
            if len(rest) != 1:
                raise ProblemFormatError(line_number, "truncation takes one integer")
            truncation = _parse_int(rest[0], line_number)
        elif keyword == "iterations":
            if len(rest) != 1:
                raise ProblemFormatError(line_number, "iterations takes one integer")
            iterations = _parse_int(rest[0], line_number)
        elif keyword == "term":
            if ";" in rest:
                split = rest.index(";")
                head, tail = rest[:split], rest[split + 1 :]
            else:
                head, tail = rest, []
            if len(head) < 2:
                raise ProblemFormatError(
                    line_number, "term needs a rate and at least one coefficient"
                )
            rate, *poly = _parse_floats(head, line_number)
            factors = tuple(_parse_int(t, line_number) for t in tail)
            terms.append(
                RhsTerm(ExpPoly((ExpTerm(rate, tuple(poly)),)), factors)
            )
        elif keyword == "bc":
            if len(rest) != 3:
                raise ProblemFormatError(
                    line_number, "bc takes point, derivative order, value"
                )
            point = _parse_floats(rest[:1], line_number)[0]
            deriv = _parse_int(rest[1], line_number)
            value = _parse_floats(rest[2:], line_number)[0]
            bcs.append(BoundaryCondition(point, deriv, value))
        elif keyword == "exact":
            if len(rest) < 2:
                raise ProblemFormatError(
                    line_number, "exact needs a rate and at least one coefficient"
                )
            rate, *poly = _parse_floats(rest, line_number)
            exact_terms.append(ExpTerm(rate, tuple(poly)))
        else:
            raise ProblemFormatError(line_number, f"unknown keyword {keyword!r}")

    if order is None:
        raise ProblemFormatError(0, "missing 'order' line")
    if domain_end is None:
        raise ProblemFormatError(0, "missing 'domain' line")

    return _checked(
        ProblemSpec(
            order=order,
            domain_end=domain_end,
            terms=tuple(terms),
            bcs=tuple(bcs),
            exact=ExpPoly(tuple(exact_terms)) if exact_terms else None,
            truncation=truncation,
            iterations=iterations,
        )
    )


def _render_numbers(values: Iterable[float]) -> str:
    # repr round-trips doubles exactly, so parse(render(spec)) == spec
    return " ".join(repr(v) for v in values)


def render_problem(spec: ProblemSpec) -> str:
    """Serialize a spec into the problem file format (inverse of parse).

    A term whose coefficient sums several exponentials is emitted as one
    line per exponential with repeated factors; that splitting is
    mathematically equivalent but changes structure, so exact round-trip
    holds for single-exponential coefficients (all built-ins qualify).
    """
    lines = [
        f"order {spec.order}",
        f"domain 0 {repr(spec.domain_end)}",
        f"truncation {spec.truncation}",
        f"iterations {spec.iterations}",
    ]
    for term in spec.terms:
        for part in term.coeff.terms:
            line = f"term {_render_numbers((part.rate,) + part.poly)}"
            if term.factors:
                line += " ; " + " ".join(str(d) for d in term.factors)
            lines.append(line)
    for bc in spec.bcs:
        lines.append(
            f"bc {repr(bc.point)} {bc.derivative_order} {repr(bc.value)}"
        )
    if spec.exact is not None:
        for part in spec.exact.terms:
            lines.append(f"exact {_render_numbers((part.rate,) + part.poly)}")
    return "\n".join(lines) + "\n"


def _exppoly(rate: float, poly: Sequence[float]) -> ExpPoly:
    return ExpPoly((ExpTerm(rate, tuple(poly)),))


def builtin(n: int) -> ProblemSpec:
    """Benchmark problems 1..4 with machine-precision boundary data."""
    e = math.e
    if n == 1:
        # u^(7) = -exp(x)(35 + 12x + 2x^2) - u, exact u = exp(x)(x - x^2)
        return _checked(
            ProblemSpec(
                order=7,
                domain_end=1.0,
                terms=(
                    RhsTerm(_exppoly(1.0, (-35.0, -12.0, -2.0))),
                    RhsTerm(_exppoly(0.0, (-1.0,)), (0,)),
                ),
                bcs=(
                    BoundaryCondition(0.0, 0, 0.0),
                    BoundaryCondition(1.0, 0, 0.0),
                    BoundaryCondition(0.0, 1, 1.0),
                    BoundaryCondition(1.0, 1, -e),
                    BoundaryCondition(0.0, 2, 0.0),
                    BoundaryCondition(1.0, 2, -4.0 * e),
                    BoundaryCondition(0.0, 3, -3.0),
                ),
                exact=_exppoly(1.0, (0.0, 1.0, -1.0)),
            )
        )
    if n == 2:
        # u^(7) = exp(-x) u^2, exact u = exp(x)
        return _checked(
            ProblemSpec(
                order=7,
                domain_end=1.0,
                terms=(RhsTerm(_exppoly(-1.0, (1.0,)), (0, 0)),),
                bcs=(
                    BoundaryCondition(0.0, 0, 1.0),
                    BoundaryCondition(0.0, 1, 1.0),
                    BoundaryCondition(0.0, 2, 1.0),
                    BoundaryCondition(0.0, 3, 1.0),
                    BoundaryCondition(1.0, 0, e),
                    BoundaryCondition(1.0, 1, e),
                    BoundaryCondition(1.0, 2, e),
                ),
                exact=_exppoly(1.0, (1.0,)),
            )
        )
    if n == 3:
        # u^(7) = -u u' + exp(x)(-35 - 13x - x^2) + exp(2x)(x - 2x^2 + x^4)
        return _checked(
            ProblemSpec(
                order=7,
                domain_end=1.0,
                terms=(
                    RhsTerm(_exppoly(0.0, (-1.0,)), (0, 1)),
                    RhsTerm(_exppoly(1.0, (-35.0, -13.0, -1.0))),
                    RhsTerm(_exppoly(2.0, (0.0, 1.0, -2.0, 0.0, 1.0))),
                ),
                bcs=(
                    BoundaryCondition(0.0, 0, 0.0),
                    BoundaryCondition(1.0, 0, 0.0),
                    BoundaryCondition(0.0, 1, 1.0),
                    BoundaryCondition(1.0, 1, -e),
                    BoundaryCondition(0.0, 2, 0.0),
                    BoundaryCondition(1.0, 2, -4.0 * e),
                    BoundaryCondition(0.0, 3, -3.0),
                ),
                exact=_exppoly(1.0, (0.0, 1.0, -1.0)),
            )
        )
    if n == 4:
        # u^(7) = u u' + exp(x)(-6 - x) + exp(2x)(x - x^2), three-point
        root_e = math.sqrt(e)
        return _checked(
            ProblemSpec(
                order=7,
                domain_end=1.0,
                terms=(
                    RhsTerm(_exppoly(0.0, (1.0,)), (0, 1)),
                    RhsTerm(_exppoly(1.0, (-6.0, -1.0))),
                    RhsTerm(_exppoly(2.0, (0.0, 1.0, -1.0))),
                ),
                bcs=(
                    BoundaryCondition(0.0, 0, 1.0),
                    BoundaryCondition(0.5, 0, root_e / 2.0),
                    BoundaryCondition(0.0, 1, 0.0),
                    BoundaryCondition(0.5, 1, -root_e / 2.0),
                    BoundaryCondition(0.0, 2, -1.0),
                    BoundaryCondition(1.0, 2, -2.0 * e),
                    BoundaryCondition(1.0, 0, 0.0),
                ),
                exact=_exppoly(1.0, (1.0, -1.0)),
            )
        )
    raise ValueError(f"builtin problem number must be 1..{BUILTIN_COUNT}, got {n}")


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
    return _checked(replace(spec, **changes))
