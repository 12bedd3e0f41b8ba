"""Problem specs: built-ins, validation, file format round-trips."""

import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vihpm.problems import (
    MAX_SERIES_DEGREE,
    BoundaryCondition,
    InvalidProblemError,
    ProblemFormatError,
    ProblemSpec,
    RhsTerm,
    builtin,
    parse_problem,
    validate,
    with_settings,
)
from vihpm.series import ExpPoly, evaluate, expand_exppoly
from vihpm.engine import residual
from vihpm.solver import solve

from ring_helpers import render_problem, replace


class TestBuiltins:
    def test_count_and_range(self):
        for n in range(1, 5):
            assert validate(builtin(n)) == []
        for n in (0, 5, -1, 1.5, "1"):
            got = re.escape(repr(n))
            with pytest.raises(
                ValueError, match=rf"^builtin problem number must be 1\.\.4, got {got}$"
            ):
                builtin(n)

    def test_integral_float_number(self):
        assert builtin(1.0) == builtin(1)
        assert builtin(4.0) == builtin(4)

    def test_first_problem_structure(self):
        spec = builtin(1)
        assert spec.order == 7
        assert spec.domain_end == 1.0
        forcing, linear = spec.terms
        assert forcing.factors == ()
        assert forcing.coeff.terms[0].rate == 1.0
        assert forcing.coeff.terms[0].poly == (-35.0, -12.0, -2.0)
        assert linear.factors == (0,)
        assert linear.coeff.terms[0].rate == 0.0
        assert linear.coeff.terms[0].poly == (-1.0,)
        assert spec.exact.terms[0].poly == (0.0, 1.0, -1.0)

    def test_second_problem_structure(self):
        spec = builtin(2)
        (term,) = spec.terms
        assert term.factors == (0, 0)
        assert term.coeff.terms[0].rate == -1.0
        orders_at_origin = sorted(
            bc.derivative_order for bc in spec.origin_conditions()
        )
        assert orders_at_origin == [0, 1, 2, 3]
        assert all(bc.value == math.e for bc in spec.off_origin_conditions())

    def test_third_problem_structure(self):
        spec = builtin(3)
        product, forcing_a, forcing_b = spec.terms
        assert product.factors == (0, 1)
        assert product.coeff.terms[0].poly == (-1.0,)
        assert forcing_a.coeff.terms[0].rate == 1.0
        assert forcing_a.coeff.terms[0].poly == (-35.0, -13.0, -1.0)
        assert forcing_b.coeff.terms[0].rate == 2.0
        assert forcing_b.coeff.terms[0].poly == (0.0, 1.0, -2.0, 0.0, 1.0)

    def test_fourth_problem_three_point_conditions(self):
        spec = builtin(4)
        root_e = math.sqrt(math.e)
        pairs = {(bc.point, bc.derivative_order): bc.value for bc in spec.bcs}
        assert pairs[(0.5, 0)] == root_e / 2.0
        assert pairs[(0.5, 1)] == -root_e / 2.0
        assert pairs[(1.0, 2)] == -2.0 * math.e
        assert len({p for p, _ in pairs}) == 3

    def test_unknown_degrees(self):
        assert builtin(1).unknown_degrees() == (4, 5, 6)
        assert builtin(2).unknown_degrees() == (4, 5, 6)
        assert builtin(4).unknown_degrees() == (3, 4, 5, 6)
        assert builtin(4).unknown_count() == 4

    def test_unknown_count_identity(self):
        for n in range(1, 5):
            spec = builtin(n)
            at_origin = len(spec.origin_conditions())
            off_origin = len(spec.off_origin_conditions())
            assert at_origin + off_origin == spec.order
            assert spec.unknown_count() == spec.order - at_origin

    def test_rhs_reproduces_derivative_of_reference(self):
        """At W=20 the reference series satisfies the equation up to
        truncation error on the whole grid."""
        for n in range(1, 5):
            spec = with_settings(builtin(n), truncation=20)
            ref = expand_exppoly(spec.exact, 20)
            defect = residual(ref, spec)
            sup = max(abs(evaluate(defect, i / 10)) for i in range(11))
            assert sup <= 1e-6, (n, sup)


def rejection(make, *args, **kwargs) -> list[str]:
    """The messages ``make(*args, **kwargs)`` is rejected with."""
    with pytest.raises(InvalidProblemError) as caught:
        make(*args, **kwargs)
    return list(caught.value.errors)


class TestValidate:
    def test_wrong_condition_count_message(self):
        errors = rejection(
            ProblemSpec,
            order=7,
            domain_end=1.0,
            terms=(),
            bcs=tuple(
                BoundaryCondition(0.0, j, 0.0) for j in range(6)
            ),
        )
        assert any("expected 7 boundary conditions" in e for e in errors)

    def test_derivative_order_bound(self):
        errors = rejection(
            ProblemSpec,
            order=7,
            domain_end=1.0,
            terms=(),
            bcs=tuple(BoundaryCondition(0.0, j, 0.0) for j in range(6))
            + (BoundaryCondition(0.0, 7, 0.0),),
        )
        assert any("derivative order 7" in e for e in errors)

    def test_duplicate_condition(self):
        bcs = list(builtin(1).bcs[:6]) + [builtin(1).bcs[5]]
        errors = rejection(
            ProblemSpec, order=7, domain_end=1.0, terms=(), bcs=tuple(bcs)
        )
        assert any("duplicate" in e for e in errors)

    def test_point_outside_domain(self):
        errors = rejection(
            ProblemSpec,
            order=1,
            domain_end=1.0,
            terms=(),
            bcs=(BoundaryCondition(1.5, 0, 0.0),),
        )
        assert any("outside" in e for e in errors)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_condition_value(self, value):
        # the condition itself is rejected, before any spec holds it
        assert rejection(BoundaryCondition, 1.0, 0, value) == [
            f"value must be finite, got {value}"
        ]

    def test_direct_construction_is_checked(self):
        assert rejection(ProblemSpec, order=0, domain_end=1.0, terms=(), bcs=()) == [
            "operator order must be at least 1, got 0"
        ]
        # neither spec may reach the engine: both used to iterate silently
        assert rejection(
            ProblemSpec,
            order=1,
            domain_end=-1.0,
            terms=(),
            bcs=(BoundaryCondition(0.0, 0, 1.0),),
        ) == [
            "domain end must be positive, got -1.0",
            "boundary condition point 0.0 outside [0, -1.0]",
        ]
        assert rejection(
            ProblemSpec, order=2, domain_end=1.0, terms=(), bcs=(), truncation=1
        ) == [
            "truncation degree 1 is below operator order 2",
            "expected 2 boundary conditions, found 0",
        ]

    @pytest.mark.parametrize(
        "end, errors",
        [
            # 1e400 reads as inf; a non-finite field is raised before validate
            # runs, so no condition is compared with the domain
            (1e400, ["domain_end must be finite, got inf"]),
            (math.nan, ["domain_end must be finite, got nan"]),
        ],
    )
    def test_non_finite_domain_end(self, end, errors):
        assert rejection(
            ProblemSpec,
            order=1,
            domain_end=end,
            terms=(),
            bcs=(BoundaryCondition(0.0, 0, 1.0),),
        ) == errors

    def test_truncation_and_iterations(self):
        base = builtin(1)
        with pytest.raises(InvalidProblemError):
            with_settings(base, truncation=6)
        with pytest.raises(InvalidProblemError):
            with_settings(base, iterations=0)

    def test_series_degree_cap(self):
        # builtin 1 has order 7 and one correction: degree = truncation + 7
        base = builtin(1)
        at_cap = with_settings(base, truncation=MAX_SERIES_DEGREE - 7)
        assert validate(at_cap) == []
        assert rejection(with_settings, base, truncation=MAX_SERIES_DEGREE - 6) == [
            "iterations 1 reaches series degree 1001, above 1000"
        ]
        assert rejection(with_settings, base, iterations=MAX_SERIES_DEGREE) == [
            "iterations 1000 reaches series degree 7012, above 1000"
        ]

    def test_overflowing_exact_term(self):
        exact = ExpPoly.from_terms([(0.0, (1.0,)), (1.0, (2.0,)), (-1.0, (3.0,))])
        # the rates are fine on a domain where exp stays in range
        spec = ProblemSpec(
            order=1,
            domain_end=700.0,
            terms=(),
            bcs=(BoundaryCondition(0.0, 0, 1.0),),
            exact=exact,
        )
        assert rejection(replace, spec, domain_end=1000.0) == [
            "exact term 'exact 1.0 2.0' overflows at x = 1000.0"
        ]

    def test_overflowing_exact_bound(self):
        spec = ProblemSpec(
            order=1,
            domain_end=1.0,
            terms=(),
            bcs=(BoundaryCondition(0.0, 0, 1.0),),
        )
        # each term alone fits, their sum at x = 1 does not
        exact = ExpPoly.from_terms([(709.0, (1.5,)), (709.0, (1.5,))])
        assert rejection(replace, spec, exact=exact) == [
            "exact reference overflows on [0, 1.0]"
        ]
        # a polynomial part that overflows names its term
        big = ExpPoly.from_terms([(709.0, (1e300,)), (0.0, (0.0, 0.0, 1.0))])
        assert rejection(replace, spec, exact=big) == [
            "exact term 'exact 709.0 1e+300' overflows at x = 1.0"
        ]
        # max(1, b)**j: on [0, 1e200] the x^2 term overflows, x^1 does not
        assert rejection(replace, spec, domain_end=1e200, exact=big) == [
            "exact term 'exact 709.0 1e+300' overflows at x = 1e+200",
            "exact term 'exact 0.0 0.0 0.0 1.0' overflows at x = 1e+200",
        ]
        fine = ExpPoly.from_terms([(0.0, (0.0, 1.0))])
        assert validate(replace(spec, domain_end=1e200, exact=fine)) == []

    def test_term_factor_order_bound(self):
        errors = rejection(
            ProblemSpec,
            order=2,
            domain_end=1.0,
            terms=(RhsTerm(ExpPoly.from_terms([(0.0, (1.0,))]), (2,)),),
            bcs=(
                BoundaryCondition(0.0, 0, 0.0),
                BoundaryCondition(0.0, 1, 0.0),
            ),
        )
        assert any("factor derivative order" in e for e in errors)


class TestDerivativeOrders:
    @pytest.mark.parametrize("order", [1.5, -0.5, math.nan, math.inf, "1", None])
    def test_non_integral_order_rejected_when_built(self, order):
        message = re.escape(f"derivative order must be an integer, got {order!r}")
        with pytest.raises(ValueError, match=message):
            BoundaryCondition(0.0, order, 1.0)
        with pytest.raises(ValueError, match=message):
            RhsTerm(ExpPoly.from_terms([(0.0, (1.0,))]), (0, order))

    def test_integral_order_becomes_int(self):
        bc = BoundaryCondition(0.0, 2.0, 1.0)
        term = RhsTerm(ExpPoly.from_terms([(0.0, (1.0,))]), (1.0, 0))
        assert bc.derivative_order == 2 and type(bc.derivative_order) is int
        assert term.factors == (1, 0)
        assert all(type(d) is int for d in term.factors)

    def test_float_orders_solve_like_int_orders(self):
        # before, a float order reached math.factorial and raised TypeError
        spec = builtin(1)
        floats = replace(
            spec,
            bcs=tuple(
                BoundaryCondition(bc.point, float(bc.derivative_order), bc.value)
                for bc in spec.bcs
            ),
        )
        assert floats == spec
        assert solve(floats) == solve(spec)


class TestIntegralSettings:
    """``order``, ``truncation`` and ``iterations`` follow the policy of
    derivative orders: an integral value becomes an int, and any other is
    named in an InvalidProblemError when the spec is built."""

    @pytest.mark.parametrize("name", ["truncation", "iterations"])
    @pytest.mark.parametrize("value", [12.5, 1.5, -0.5, math.nan, math.inf, "12", None])
    def test_non_integral_setting_rejected(self, name, value):
        errors = rejection(replace, builtin(1), **{name: value})
        assert errors == [f"{name} must be an integer, got {value!r}"]

    @pytest.mark.parametrize("value", [7.5, math.nan, "7", None])
    def test_non_integral_order_rejected(self, value):
        errors = rejection(replace, builtin(1), order=value)
        assert errors == [f"order must be an integer, got {value!r}"]

    def test_every_non_integral_setting_is_named(self):
        errors = rejection(
            replace, builtin(1), order=7.5, truncation=12.5, iterations=1.5
        )
        assert errors == [
            "order must be an integer, got 7.5",
            "truncation must be an integer, got 12.5",
            "iterations must be an integer, got 1.5",
        ]

    def test_integral_floats_become_ints_and_solve_alike(self):
        # before, each of these raised a bare TypeError, at construction or
        # in solve
        spec = builtin(1)
        floats = replace(spec, order=7.0, truncation=12.0, iterations=1.0)
        assert floats == spec
        for name in ("order", "truncation", "iterations"):
            assert type(getattr(floats, name)) is int
        assert solve(floats) == solve(spec)
        assert solve(with_settings(spec, truncation=30.0, iterations=3.0)) == solve(
            with_settings(spec, truncation=30, iterations=3)
        )

    def test_integral_but_invalid_value_reaches_validate(self):
        errors = rejection(with_settings, builtin(1), truncation=6.0)
        assert errors == ["truncation degree 6 is below operator order 7"]


class TestFieldTypes:
    """A field of the wrong type is an InvalidProblemError that names it,
    raised when the value is built, never a bare TypeError or ValueError
    and never an AttributeError inside solve()."""

    ONE = ExpPoly.from_terms([(0.0, (1.0,))])

    @pytest.mark.parametrize("value", [None, "x", [1.0], 10**400])
    def test_non_numeric_domain_end(self, value):
        errors = rejection(replace, builtin(1), domain_end=value)
        assert errors == [f"domain_end must be a number, got {value!r}"]

    @pytest.mark.parametrize("value", [None, "a", (0.0,)])
    def test_non_numeric_condition_point_and_value(self, value):
        assert rejection(BoundaryCondition, value, 0, 1.0) == [
            f"point must be a number, got {value!r}"
        ]
        assert rejection(BoundaryCondition, 0.0, 0, value) == [
            f"value must be a number, got {value!r}"
        ]
        assert rejection(BoundaryCondition, value, None, value) == [
            f"point must be a number, got {value!r}",
            "derivative order must be an integer, got None",
            f"value must be a number, got {value!r}",
        ]

    @pytest.mark.parametrize("name", ["terms", "bcs"])
    @pytest.mark.parametrize("value", [None, 3, 1.5])
    def test_non_iterable_tuples(self, name, value):
        errors = rejection(replace, builtin(1), **{name: value})
        assert errors == [f"{name} must be iterable, got {value!r}"]

    def test_non_iterable_factors(self):
        assert rejection(RhsTerm, self.ONE, 3) == ["factors must be iterable, got 3"]

    @pytest.mark.parametrize("coeff", [1.0, None, (0.0, (1.0,)), "1"])
    def test_coefficient_must_be_an_exppoly(self, coeff):
        # before, RhsTerm(1.0) was built and solve() raised AttributeError
        assert rejection(RhsTerm, coeff) == [f"coeff must be ExpPoly, got {coeff!r}"]
        assert rejection(RhsTerm, coeff, (0, 1.5)) == [
            f"coeff must be ExpPoly, got {coeff!r}",
            "derivative order must be an integer, got 1.5",
        ]

    @pytest.mark.parametrize("exact", [1.0, "exp", (0.0, (1.0,))])
    def test_exact_must_be_an_exppoly_or_none(self, exact):
        errors = rejection(replace, builtin(1), exact=exact)
        assert errors == [f"exact must be ExpPoly, got {exact!r}"]
        assert replace(builtin(1), exact=None).exact is None

    def test_entries_of_the_wrong_class(self):
        spec = builtin(1)
        bad_term, bad_bc = (0.0, (1.0,)), (0.0, 0, 1.0)
        assert rejection(replace, spec, terms=spec.terms + (bad_term,)) == [
            f"each of terms must be RhsTerm, got {bad_term!r}"
        ]
        assert rejection(replace, spec, bcs=spec.bcs[:6] + (bad_bc,)) == [
            f"each of bcs must be BoundaryCondition, got {bad_bc!r}"
        ]

    def test_every_wrong_field_is_named_in_field_order(self):
        errors = rejection(
            ProblemSpec,
            order=7.5,
            domain_end="x",
            terms=None,
            bcs=[None],
            exact=1.0,
            truncation="12",
            iterations=None,
        )
        assert errors == [
            "order must be an integer, got 7.5",
            "domain_end must be a number, got 'x'",
            "terms must be iterable, got None",
            "each of bcs must be BoundaryCondition, got None",
            "exact must be ExpPoly, got 1.0",
            "truncation must be an integer, got '12'",
            "iterations must be an integer, got None",
        ]

    def test_errors_are_value_errors(self):
        # the CLI reports ValueError as an input error (exit 1)
        with pytest.raises(ValueError):
            replace(builtin(1), bcs=None)
        with pytest.raises(ValueError):
            RhsTerm(1.0)


def first_problem_text() -> str:
    e = math.e
    return "\n".join(
        [
            "# seventh order linear benchmark",
            "order 7",
            "domain 0 1",
            "term 1 -35 -12 -2",
            "term 0 -1 ; 0",
            "bc 0 0 0",
            "bc 1 0 0",
            "bc 0 1 1",
            f"bc 1 1 {-e!r}",
            "bc 0 2 0",
            f"bc 1 2 {-4 * e!r}",
            "bc 0 3 -3",
            "exact 1 0 1 -1",
        ]
    )


class TestParse:
    def test_reproduces_first_builtin(self):
        assert parse_problem(first_problem_text()) == builtin(1)

    def test_product_term_grammar(self):
        spec = parse_problem(
            "order 2\ndomain 0 1\nterm 0 1 ; 0 1\nbc 0 0 0\nbc 0 1 0\n"
        )
        (term,) = spec.terms
        assert term.coeff.terms[0].rate == 0.0
        assert term.coeff.terms[0].poly == (1.0,)
        assert term.factors == (0, 1)

    def test_defaults(self):
        spec = parse_problem("order 1\ndomain 0 1\nbc 0 0 0\n")
        assert spec.truncation == 12
        assert spec.iterations == 1
        assert spec.exact is None

    @pytest.mark.parametrize("settings", [{}, {"truncation": 15, "iterations": 3}])
    def test_settings_lines_reach_the_constructor(self, settings):
        # an omitted line leaves ProblemSpec's own default
        lines = "".join(f"{keyword} {value}\n" for keyword, value in settings.items())
        spec = parse_problem(
            f"order 2\ndomain 0 1.5\n{lines}term 0 -1 ; 1\nbc 0 0 0\nbc 1.5 1 2\n"
        )
        assert spec == ProblemSpec(
            2,
            1.5,
            (RhsTerm(ExpPoly.from_terms([(0.0, (-1.0,))]), (1,)),),
            (BoundaryCondition(0.0, 0, 0.0), BoundaryCondition(1.5, 1, 2.0)),
            **settings,
        )

    def test_settings_lines(self):
        spec = parse_problem(
            "order 1\ndomain 0 1\ntruncation 15\niterations 3\nbc 0 0 0\n"
        )
        assert spec.truncation == 15
        assert spec.iterations == 3

    def test_exact_lines_summed(self):
        spec = parse_problem(
            "order 1\ndomain 0 1\nbc 0 0 0\nexact 1 1\nexact -1 0 2\n"
        )
        assert len(spec.exact.terms) == 2
        assert spec.exact.terms[1].rate == -1.0
        assert spec.exact.terms[1].poly == (0.0, 2.0)

    def test_condition_count_enforced(self):
        text = "\n".join(
            ["order 7", "domain 0 1"]
            + [f"bc 0 {j} 0" for j in range(6)]
        )
        with pytest.raises(InvalidProblemError, match="expected 7 boundary"):
            parse_problem(text)

    def test_syntax_error_carries_line_number(self):
        with pytest.raises(ProblemFormatError) as info:
            parse_problem("order 7\ndomain 0 1\nterm nope 1\n")
        assert info.value.line_number == 3
        assert "nope" in str(info.value)
        # a format fault is an input fault like any other, with one entry
        assert isinstance(info.value, InvalidProblemError)
        assert info.value.errors == ("line 3: not a number: 'nope'",)

    NON_FINITE_LINES = {
        "term inf 1.0": "rate must be finite, got inf",
        "term 1e400 1": "rate must be finite, got inf",
        # the exponential polynomial is checked before the factors are read
        "term inf 1 ; x": "rate must be finite, got inf",
        "term 0 nan": "each of poly must be finite, got nan",
        "exact 0 inf": "each of poly must be finite, got inf",
        "bc 0 0 nan": "value must be finite, got nan",
        "bc -inf 0 0": "point must be finite, got -inf",
        "bc nan 0 inf": "point must be finite, got nan; value must be finite, got inf",
    }

    @pytest.mark.parametrize("line, message", NON_FINITE_LINES.items(), ids=NON_FINITE_LINES)
    def test_non_finite_data_carries_line_number(self, line, message):
        with pytest.raises(ProblemFormatError) as info:
            parse_problem(f"order 1\ndomain 0 1\n{line}\nbc 0 0 0\n")
        assert info.value.line_number == 3
        assert str(info.value) == f"line 3: {message}"

    @pytest.mark.parametrize(
        "line, message",
        [
            ("wibble 3", "unknown keyword 'wibble'"),
            # a token that is not a number
            ("domain x 1", "not a number: 'x'"),
            ("domain 0 x", "not a number: 'x'"),
            ("bc x 0 0", "not a number: 'x'"),
            ("bc 0 0 x", "not a number: 'x'"),
            ("term 0 1 x", "not a number: 'x'"),
            ("term 0 1 ; 0 ; 1", "not an integer: ';'"),
            ("exact 0 1 x", "not a number: 'x'"),
            ("exact 0 1 ; 0", "not a number: ';'"),
            # a token that is not an integer
            ("order x", "not an integer: 'x'"),
            ("truncation x", "not an integer: 'x'"),
            ("iterations 1.5", "not an integer: '1.5'"),
            ("bc 0 1.5 0", "not an integer: '1.5'"),
            ("term 0 1 ; 0 x", "not an integer: 'x'"),
            # the tokens are read left to right
            ("bc x 1.5 y", "not a number: 'x'"),
            ("bc 0 1.5 y", "not an integer: '1.5'"),
            ("term x 1 ; y", "not a number: 'x'"),
            ("term 0 1 ; 1.5 y", "not an integer: '1.5'"),
            # a wrong token count, checked before any token is read
            ("order", "order takes one integer"),
            ("truncation x y", "truncation takes one integer"),
            ("iterations", "iterations takes one integer"),
            ("domain 1", "domain takes two numbers"),
            ("domain x y z", "domain takes two numbers"),
            ("bc 0 0", "bc takes point, derivative order, value"),
            ("bc x 0 0 0", "bc takes point, derivative order, value"),
            ("term 0", "term needs a rate and at least one coefficient"),
            ("term 0 ; 0", "term needs a rate and at least one coefficient"),
            ("term ; x y", "term needs a rate and at least one coefficient"),
            ("exact 1", "exact needs a rate and at least one coefficient"),
            ("exact", "exact needs a rate and at least one coefficient"),
            # the domain's start is checked before a repeated line
            ("domain 1 2", "domain must start at 0"),
            ("domain 0 2", "duplicate 'domain' line"),
        ],
    )
    def test_malformed_line_is_named(self, line, message):
        with pytest.raises(ProblemFormatError) as info:
            parse_problem(f"order 1\ndomain 0 1\n{line}\nbc 0 0 0\n")
        assert str(info.value) == f"line 3: {message}"

    @pytest.mark.parametrize("keyword", ["order", "truncation", "iterations"])
    def test_integer_setting_takes_one_value(self, keyword):
        text = f"order 1\ndomain 0 1\n{keyword} 3 4\nbc 0 0 0\n"
        with pytest.raises(ProblemFormatError) as info:
            parse_problem(text)
        assert info.value.line_number == 3
        assert f"{keyword} takes one integer" in str(info.value)

    @pytest.mark.parametrize(
        "line", ["order 1", "domain 0 2", "truncation 12", "iterations 1"]
    )
    def test_setting_given_twice(self, line):
        # rejected even when the second line repeats the first one's value
        keyword = line.split()[0]
        text = f"order 1\ndomain 0 1\ntruncation 12\niterations 1\n{line}\nbc 0 0 0\n"
        with pytest.raises(ProblemFormatError) as info:
            parse_problem(text)
        assert str(info.value) == f"line 5: duplicate '{keyword}' line"

    def test_unknown_keyword(self):
        with pytest.raises(ProblemFormatError, match="unknown keyword"):
            parse_problem("order 1\nwibble 3\n")

    def test_missing_header_lines(self):
        with pytest.raises(ProblemFormatError, match="missing 'order'"):
            parse_problem("domain 0 1\n")
        with pytest.raises(ProblemFormatError, match="missing 'domain'"):
            parse_problem("order 1\n")

    def test_domain_must_start_at_zero(self):
        with pytest.raises(ProblemFormatError, match="start at 0"):
            parse_problem("order 1\ndomain 0.5 1\nbc 0.6 0 0\n")

    def test_comments_and_blank_lines_ignored(self):
        text = "# header\n\norder 1  # trailing\ndomain 0 1\nbc 0 0 0\n\n"
        assert parse_problem(text).order == 1


README = Path(__file__).resolve().parent.parent / "README.md"


class TestReadmeExample:
    def test_problem_block_is_first_builtin(self):
        blocks = re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(), re.M | re.S)
        problems = [b for b in blocks if re.search(r"^order ", b, re.M)]
        assert len(problems) == 1
        block = problems[0]
        assert parse_problem(block) == builtin(1)
        rendered = "".join(
            line for line in block.splitlines(keepends=True) if not line.startswith("#")
        )
        assert rendered == render_problem(builtin(1))


class TestRoundTrip:
    def test_builtins(self):
        for n in range(1, 5):
            spec = builtin(n)
            assert parse_problem(render_problem(spec)) == spec

    def test_render_is_plain_text(self):
        text = render_problem(builtin(4))
        assert text.startswith("order 7\n")
        assert "truncation 12" in text
        assert "iterations 1" in text
        assert text.count("\nbc ") == 7

    @given(
        order=st.integers(min_value=1, max_value=3),
        end=st.sampled_from([1.0, 2.0, 0.5]),
        values=st.lists(
            st.floats(min_value=-5, max_value=5, allow_nan=False),
            min_size=3,
            max_size=3,
        ),
        origin_count=st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=40)
    def test_random_specs(self, order, end, values, origin_count):
        origin_count = min(origin_count, order)
        bcs = [
            BoundaryCondition(0.0, j, values[j % 3]) for j in range(origin_count)
        ]
        bcs += [
            BoundaryCondition(end, j, values[(j + 1) % 3])
            for j in range(order - origin_count)
        ]
        spec = ProblemSpec(
            order=order,
            domain_end=end,
            terms=(RhsTerm(ExpPoly.from_terms([(0.5, (values[0],))]), (0,)),),
            bcs=tuple(bcs),
            truncation=12,
        )
        assert validate(spec) == []
        assert parse_problem(render_problem(spec)) == spec
