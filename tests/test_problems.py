"""Problem specs: built-ins, validation, file format round-trips."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vihpm.problems import (
    BoundaryCondition,
    InvalidProblemError,
    ProblemFormatError,
    ProblemSpec,
    RhsTerm,
    builtin,
    parse_problem,
    render_problem,
    validate,
    with_settings,
)
from vihpm.series import ExpPoly, evaluate, expand_exppoly
from vihpm.engine import residual


class TestBuiltins:
    def test_count_and_range(self):
        for n in range(1, 5):
            assert validate(builtin(n)) == []
        for n in (0, 5, -1):
            with pytest.raises(ValueError):
                builtin(n)

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


class TestValidate:
    def test_wrong_condition_count_message(self):
        spec = ProblemSpec(
            order=7,
            domain_end=1.0,
            terms=(),
            bcs=tuple(
                BoundaryCondition(0.0, j, 0.0) for j in range(6)
            ),
        )
        errors = validate(spec)
        assert any("expected 7 boundary conditions" in e for e in errors)

    def test_derivative_order_bound(self):
        bad = ProblemSpec(
            order=7,
            domain_end=1.0,
            terms=(),
            bcs=tuple(BoundaryCondition(0.0, j, 0.0) for j in range(6))
            + (BoundaryCondition(0.0, 7, 0.0),),
        )
        assert any("derivative order 7" in e for e in validate(bad))

    def test_duplicate_condition(self):
        bcs = list(builtin(1).bcs[:6]) + [builtin(1).bcs[5]]
        bad = ProblemSpec(order=7, domain_end=1.0, terms=(), bcs=tuple(bcs))
        assert any("duplicate" in e for e in validate(bad))

    def test_point_outside_domain(self):
        bad = ProblemSpec(
            order=1,
            domain_end=1.0,
            terms=(),
            bcs=(BoundaryCondition(1.5, 0, 0.0),),
        )
        assert any("outside" in e for e in validate(bad))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_condition_value(self, value):
        bad = ProblemSpec(
            order=2,
            domain_end=1.0,
            terms=(),
            bcs=(
                BoundaryCondition(0.0, 0, 0.0),
                BoundaryCondition(1.0, 0, value),
            ),
        )
        assert validate(bad) == [
            f"boundary condition value must be finite, got {value}"
        ]

    def test_truncation_and_iterations(self):
        base = builtin(1)
        with pytest.raises(InvalidProblemError):
            with_settings(base, truncation=6)
        with pytest.raises(InvalidProblemError):
            with_settings(base, iterations=0)

    def test_term_factor_order_bound(self):
        bad = ProblemSpec(
            order=2,
            domain_end=1.0,
            terms=(RhsTerm(ExpPoly.from_terms([(0.0, (1.0,))]), (2,)),),
            bcs=(
                BoundaryCondition(0.0, 0, 0.0),
                BoundaryCondition(0.0, 1, 0.0),
            ),
        )
        assert any("factor derivative order" in e for e in validate(bad))


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
