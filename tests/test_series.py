"""Truncated series arithmetic against brute-force and closed-form oracles."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vihpm.engine import iterate
from vihpm.problems import builtin
from vihpm.series import (
    ExpPoly,
    ExpTerm,
    Series,
    add,
    differentiate,
    evaluate,
    evaluate_derivative,
    expand_exppoly,
    make_series,
    mul,
    pad_to,
    sub,
)

from ring_helpers import scale

coeff_floats = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)


def series_strategy(truncation: int):
    return st.lists(
        coeff_floats, min_size=truncation + 1, max_size=truncation + 1
    ).map(lambda cs: Series(tuple(cs)))


def assert_series_close(f: Series, g: Series, scale_series=None, rel=1e-14):
    """Coefficient-wise closeness scaled by accumulated magnitude.

    Reassociated sums are compared against rel times the sum of absolute
    contributions (supplied via scale_series), not the possibly cancelled
    result, which is the honest model of floating-point reassociation.
    """
    assert f.truncation == g.truncation
    for k, (a, b) in enumerate(zip(f.coeffs, g.coeffs)):
        magnitude = max(abs(a), abs(b), 1e-30)
        if scale_series is not None:
            magnitude = max(magnitude, abs(scale_series.coeffs[k]))
        assert abs(a - b) <= rel * magnitude, (k, a, b)


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Series(())

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Series((1.0, math.inf))
        with pytest.raises(ValueError):
            Series((math.nan,))

    def test_coerces_ints(self):
        s = Series((1, 2, 3))
        assert s.coeffs == (1.0, 2.0, 3.0)
        assert all(isinstance(c, float) for c in s.coeffs)

    def test_truncation_degree(self):
        assert Series((0.0,)).truncation == 0
        assert make_series([1.0], 12).truncation == 12

    def test_make_series_pads(self):
        s = make_series([1.0, 2.0], 4)
        assert s.coeffs == (1.0, 2.0, 0.0, 0.0, 0.0)

    def test_make_series_rejects_overflow(self):
        with pytest.raises(ValueError):
            make_series([1.0, 2.0, 3.0], 1)

    def test_pad_to_extends_with_zeros(self):
        s = pad_to(Series((1.0, 2.0)), 4)
        assert s.coeffs == (1.0, 2.0, 0.0, 0.0, 0.0)

    def test_pad_to_rejects_shrink(self):
        with pytest.raises(ValueError):
            pad_to(Series((1.0, 2.0, 3.0)), 1)


def warm_exppoly() -> ExpPoly:
    """An exponential polynomial whose expansion table already holds degree 6."""
    e = ExpPoly.from_terms([(1.5, (1.0, -2.0))])
    expand_exppoly(e, 6)
    return e


# every count argument, as a call taking the count, and the field it names
COUNT_CALLS = {
    "make-series": (lambda n: make_series([1.0], n), "truncation"),
    "expand-cold": (
        lambda n: expand_exppoly(ExpPoly.from_terms([(1.5, (1.0, -2.0))]), n),
        "truncation",
    ),
    "expand-warm": (lambda n: expand_exppoly(warm_exppoly(), n), "truncation"),
    "iterate": (lambda n: iterate(builtin(1), (0.1, -0.2, 0.05), n), "n_iter"),
    "differentiate": (lambda n: differentiate(Series((1.0, 2.0, 3.0, 4.0)), n), "order"),
    "evaluate-derivative": (
        lambda n: evaluate_derivative(Series((1.0, 2.0, 3.0, 4.0)), n, 0.5),
        "order",
    ),
    "pad-to": (lambda n: pad_to(Series((2.0,)), n), "truncation"),
}
COUNT_FAULTS = [
    (f"{label}-{bad!r}", lambda call=call, bad=bad: call(bad), f"^{name} must be {fault}")
    for label, (call, name) in COUNT_CALLS.items()
    for bad, fault in [
        (1.5, "an integer, got "),
        (None, "an integer, got "),
        ("1", "an integer, got "),
        (-1, "non-negative, got -1$"),
    ]
    # None is iterate's default: the spec's own count
    if not (label == "iterate" and bad is None)
]


class TestInputTypes:
    """A wrongly typed input raises ValueError naming its field."""

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: ExpPoly((1.0,)), "each of terms must be ExpTerm, got 1.0"),
            (lambda: ExpPoly((ExpTerm(0.0, (1.0,)), None)), "each of terms must be ExpTerm"),
            (lambda: ExpPoly(None), "terms must be iterable, got None"),
            (lambda: ExpTerm(None, (1.0,)), "rate must be a number, got None"),
            (lambda: ExpTerm("a", (1.0,)), "rate must be a number, got 'a'"),
            (lambda: ExpTerm(1.0, None), "poly must be a sequence of numbers, got None"),
            (lambda: ExpTerm(1.0, ("a",)), "poly must be a sequence of numbers"),
            (lambda: Series(None), "coeffs must be a sequence of numbers, got None"),
            (lambda: Series([None]), "coeffs must be a sequence of numbers, got \\[None\\]"),
            (lambda: Series(["a"]), "coeffs must be a sequence of numbers"),
            (lambda: make_series([None], 3), "coeffs must be a sequence of numbers"),
            (lambda: make_series([1.0], 2.5), "^truncation must be an integer, got 2.5$"),
            (
                lambda: ExpTerm(None, None),
                "^rate must be a number, got None; "
                "poly must be a sequence of numbers, got None$",
            ),
            (
                lambda: make_series([None], -1),
                "^coeffs must be a sequence of numbers, got \\[None\\]; "
                "truncation must be non-negative, got -1$",
            ),
            *[(build, message) for _, build, message in COUNT_FAULTS],
        ],
        ids=[
            "exppoly-float-term", "exppoly-none-term", "exppoly-none", "expterm-none-rate",
            "expterm-text-rate", "expterm-none-poly", "expterm-text-poly", "series-none",
            "series-none-coeff", "series-text-coeff", "make-series-none-coeff",
            "make-series-float-truncation", "expterm-every-fault", "make-series-every-fault",
            *[label for label, _, _ in COUNT_FAULTS],
        ],
    )
    def test_wrong_type_names_the_field(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    @pytest.mark.parametrize(
        "call", [call for call, _ in COUNT_CALLS.values()], ids=list(COUNT_CALLS)
    )
    def test_integral_float_count_runs_as_an_int(self, call):
        assert call(1.0) == call(1)

    def test_numbers_given_as_text_or_ints_are_still_converted(self):
        assert ExpTerm("0.5", [1, "2"]) == ExpTerm(0.5, (1.0, 2.0))
        assert Series(["1.5", 2]).coeffs == (1.5, 2.0)
        assert make_series(("1",), 2).coeffs == (1.0, 0.0, 0.0)
        assert ExpPoly([ExpTerm(0.0, (1.0,))]).terms == (ExpTerm(0.0, (1.0,)),)


class TestArithmetic:
    def test_add_sub_exact(self):
        f = Series((1.0, -2.5, 3.0))
        g = Series((0.25, 4.0, -1.0))
        assert add(f, g).coeffs == (1.25, 1.5, 2.0)
        assert sub(f, g).coeffs == (0.75, -6.5, 4.0)

    def test_mismatched_truncation_rejected(self):
        with pytest.raises(ValueError):
            add(Series((1.0,)), Series((1.0, 2.0)))
        with pytest.raises(ValueError):
            mul(Series((1.0,)), Series((1.0, 2.0)))

    def test_scale(self):
        assert scale(Series((1.0, -2.0)), -0.5).coeffs == (-0.5, 1.0)
        with pytest.raises(ValueError):
            scale(Series((1.0,)), math.inf)

    def test_mul_against_brute_force(self):
        rng = random.Random(101)
        for _ in range(25):
            w = rng.randrange(0, 14)
            f = Series(tuple(rng.uniform(-3, 3) for _ in range(w + 1)))
            g = Series(tuple(rng.uniform(-3, 3) for _ in range(w + 1)))
            got = mul(f, g)
            for k in range(w + 1):
                # fsum gives a correctly rounded reference per coefficient
                expect = math.fsum(
                    f.coeffs[i] * g.coeffs[k - i] for i in range(k + 1)
                )
                budget = math.fsum(
                    abs(f.coeffs[i] * g.coeffs[k - i]) for i in range(k + 1)
                )
                assert abs(got.coeffs[k] - expect) <= 1e-15 * max(budget, 1e-30)

    @given(series_strategy(6), series_strategy(6))
    def test_add_commutes_bitwise(self, f, g):
        assert add(f, g).coeffs == add(g, f).coeffs

    @given(series_strategy(5), series_strategy(5))
    @settings(max_examples=60)
    def test_mul_commutes(self, f, g):
        budget = mul(
            Series(tuple(abs(c) for c in f.coeffs)),
            Series(tuple(abs(c) for c in g.coeffs)),
        )
        assert_series_close(mul(f, g), mul(g, f), scale_series=budget)

    @given(series_strategy(5), series_strategy(5), series_strategy(5))
    @settings(max_examples=60)
    def test_mul_associates(self, f, g, h):
        absf = Series(tuple(abs(c) for c in f.coeffs))
        absg = Series(tuple(abs(c) for c in g.coeffs))
        absh = Series(tuple(abs(c) for c in h.coeffs))
        budget = mul(mul(absf, absg), absh)
        assert_series_close(
            mul(mul(f, g), h), mul(f, mul(g, h)), scale_series=budget
        )

    @given(series_strategy(5), series_strategy(5), series_strategy(5))
    @settings(max_examples=60)
    def test_mul_distributes_over_add(self, f, g, h):
        absf = Series(tuple(abs(c) for c in f.coeffs))
        aggregate = mul(
            absf,
            add(
                Series(tuple(abs(c) for c in g.coeffs)),
                Series(tuple(abs(c) for c in h.coeffs)),
            ),
        )
        assert_series_close(
            mul(f, add(g, h)),
            add(mul(f, g), mul(f, h)),
            scale_series=aggregate,
        )


class TestDifferentiate:
    def test_second_derivative_of_exponential_series(self):
        # d^2/dx^2 sum x^k/k! at W=12 drops the top two degrees
        f = Series(tuple(1.0 / math.factorial(k) for k in range(13)))
        got = differentiate(f, 2)
        for k in range(11):
            # (k+2)(k+1)/(k+2)! == 1/k!, built term by term as the oracle
            expect = f.coeffs[k + 2] * ((k + 2) * (k + 1))
            assert got.coeffs[k] == expect
            assert math.isclose(got.coeffs[k], 1.0 / math.factorial(k), rel_tol=1e-14)
        assert got.coeffs[11] == 0.0
        assert got.coeffs[12] == 0.0

    def test_order_zero_is_identity(self):
        f = Series((1.0, -2.0, 3.5))
        assert differentiate(f, 0).coeffs == f.coeffs

    def test_composition_matches_repeated_single(self):
        rng = random.Random(33)
        f = Series(tuple(rng.uniform(-2, 2) for _ in range(11)))
        twice = differentiate(differentiate(f, 1), 1)
        assert differentiate(f, 2).coeffs == pytest.approx(twice.coeffs, rel=1e-15)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            differentiate(Series((1.0,)), -1)

    def test_kills_low_degree_polynomials(self):
        f = make_series([3.0, 2.0, 1.0], 10)
        assert differentiate(f, 3).coeffs == (0.0,) * 11


class TestEvaluate:
    def test_against_power_sum(self):
        rng = random.Random(5)
        f = Series(tuple(rng.uniform(-2, 2) for _ in range(13)))
        for x in (0.0, 0.3, 0.5, 1.0, -0.7):
            expect = math.fsum(c * x**k for k, c in enumerate(f.coeffs))
            assert evaluate(f, x) == pytest.approx(expect, rel=1e-13, abs=1e-15)

    def test_constant_term(self):
        assert evaluate(Series((4.25, 1.0, 1.0)), 0.0) == 4.25

    def test_evaluate_derivative(self):
        # f = x^3: f''(x) = 6x
        f = make_series([0.0, 0.0, 0.0, 1.0], 5)
        assert evaluate_derivative(f, 2, 0.5) == pytest.approx(3.0, rel=1e-15)
        assert evaluate_derivative(f, 0, 0.5) == evaluate(f, 0.5)


class TestExpPoly:
    def test_term_validation(self):
        with pytest.raises(ValueError):
            ExpTerm(1.0, ())
        with pytest.raises(ValueError):
            ExpTerm(math.inf, (1.0,))

    def test_evaluate_sum_of_terms(self):
        # exp(x)(1 - x) + exp(-2x) * 3
        e = ExpPoly.from_terms([(1.0, (1.0, -1.0)), (-2.0, (3.0,))])
        for x in (0.0, 0.4, 1.0):
            expect = math.exp(x) * (1 - x) + 3 * math.exp(-2 * x)
            assert e.evaluate(x) == pytest.approx(expect, rel=1e-15)

    def test_expand_exponential_coefficients(self):
        e = ExpPoly.from_terms([(1.0, (1.0,))])
        s = expand_exppoly(e, 12)
        for k in range(13):
            assert math.isclose(s.coeffs[k], 1.0 / math.factorial(k), rel_tol=1e-14)

    def test_expand_polynomial_shift(self):
        # exp(0x) * (2 + 3x) is just the polynomial itself
        e = ExpPoly.from_terms([(0.0, (2.0, 3.0))])
        assert expand_exppoly(e, 5).coeffs == (2.0, 3.0, 0.0, 0.0, 0.0, 0.0)

    def test_expand_negative_truncation_rejected(self):
        with pytest.raises(ValueError):
            expand_exppoly(ExpPoly.from_terms([(0.0, (1.0,))]), -1)

    def test_expand_integral_float_degree_on_a_cold_table(self):
        e = ExpPoly.from_terms([(1.5, (1.0, -2.0))])
        s = expand_exppoly(e, 4.0)
        assert s.coeffs == expand_exppoly(ExpPoly(e.terms), 4).coeffs
        # stored under the int degree, so asking again returns the same series
        assert expand_exppoly(e, 4) is s

    def test_expand_integral_float_degree_on_a_warm_table(self):
        e = ExpPoly.from_terms([(1.5, (1.0, -2.0))])
        top = expand_exppoly(e, 6)
        assert expand_exppoly(e, 3.0).coeffs == top.coeffs[:4]
        assert expand_exppoly(e, 6.0) is top

    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.parametrize("truncation", [2.5, None, "3", [3]])
    def test_expand_non_integral_degree_is_named(self, warm, truncation):
        e = ExpPoly.from_terms([(1.5, (1.0, -2.0))])
        if warm:
            expand_exppoly(e, 6)
        with pytest.raises(ValueError, match="^truncation must be an integer, got "):
            expand_exppoly(e, truncation)

    def test_expansion_matches_pointwise_within_tail_bound(self):
        """Series evaluation agrees with the closed form up to the
        rigorously bounded Taylor remainder of each exponential term."""
        rng = random.Random(2024)
        w = 12
        for _ in range(40):
            terms = [
                (
                    rng.uniform(-1.0, 1.0),
                    tuple(rng.uniform(-2.0, 2.0) for _ in range(rng.randrange(1, 5))),
                )
                for _ in range(rng.randrange(1, 4))
            ]
            e = ExpPoly.from_terms(terms)
            s = expand_exppoly(e, w)
            for x in (0.0, 0.31, 0.75, 1.0):
                tail = sum(
                    sum(
                        abs(p)
                        * abs(a) ** (w + 1 - j)
                        / math.factorial(w + 1 - j)
                        * math.exp(abs(a))
                        for j, p in enumerate(poly)
                        if j <= w
                    )
                    for a, poly in terms
                )
                assert abs(evaluate(s, x) - e.evaluate(x)) <= tail + 1e-12

    def test_expansion_additive_across_terms(self):
        a = ExpPoly.from_terms([(1.0, (1.0, 2.0))])
        b = ExpPoly.from_terms([(-0.5, (0.0, 1.0, 3.0))])
        both = ExpPoly(a.terms + b.terms)
        lhs = expand_exppoly(both, 10)
        rhs = add(expand_exppoly(a, 10), expand_exppoly(b, 10))
        assert lhs.coeffs == pytest.approx(rhs.coeffs, rel=1e-15, abs=1e-18)
