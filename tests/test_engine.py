"""Engine: initial polynomial, residuals, correction map, p-expansion."""

import math
import random
import re
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vihpm import engine
from vihpm.engine import (
    _apply,
    _he_order,
    _linearization,
    _picks,
    _tangents,
    correct_once,
    he_coefficients,
    initial_approx,
    iterate,
    residual,
)
from vihpm.kernel import CorrectionKernel
from vihpm.problems import (
    BoundaryCondition,
    ProblemSpec,
    RhsTerm,
    builtin,
    with_settings,
)
from vihpm.series import (
    ExpPoly,
    _product,
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
from vihpm.solver import fd_jacobian, jacobian, solve

from ring_helpers import replace, scale


def apply_rhs_direct(spec, v):
    """Independent term-by-term application of F in v's ring."""
    total = make_series([], v.truncation)
    for term in spec.terms:
        acc = expand_exppoly(term.coeff, v.truncation)
        for d in term.factors:
            acc = mul(acc, differentiate(v, d))
        total = add(total, acc)
    return total


class TestInitialApprox:
    def test_first_builtin_shape(self):
        # x - x^3/2 + A x^4 + B x^5 + C x^6
        u0 = initial_approx(builtin(1), (0.25, -0.5, 0.125))
        assert u0.truncation == 12
        assert u0.coeffs[:7] == (0.0, 1.0, 0.0, -0.5, 0.25, -0.5, 0.125)
        assert all(c == 0.0 for c in u0.coeffs[7:])

    def test_second_builtin_shape(self):
        # 1 + x + x^2/2 + x^3/6 + free constants above
        u0 = initial_approx(builtin(2), (0.1, 0.2, 0.3))
        assert u0.coeffs[:4] == (1.0, 1.0, 0.5, 1.0 / 6.0)
        assert u0.coeffs[4:7] == (0.1, 0.2, 0.3)

    def test_three_point_layout(self):
        u0 = initial_approx(builtin(4), (1.0, 2.0, 3.0, 4.0))
        assert u0.coeffs[:3] == (1.0, 0.0, -0.5)
        assert u0.coeffs[3:7] == (1.0, 2.0, 3.0, 4.0)

    def test_wrong_constant_count(self):
        with pytest.raises(ValueError, match="free constants"):
            initial_approx(builtin(1), (1.0,))

    @pytest.mark.parametrize("run", [initial_approx, iterate])
    @pytest.mark.parametrize(
        "constants", [(None, 0, 0), ("a", 0, 0), None], ids=["none", "text", "bare"]
    )
    def test_non_numeric_constants_name_the_field(self, run, constants):
        # a ValueError naming the field, not a bare float() error
        message = f"constants must be a sequence of numbers, got {constants!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run(builtin(1), constants)

    def test_all_origin_conditions_pure_taylor(self):
        spec = ProblemSpec(
            order=3,
            domain_end=1.0,
            terms=(),
            bcs=(
                BoundaryCondition(0.0, 0, 2.0),
                BoundaryCondition(0.0, 1, -1.0),
                BoundaryCondition(0.0, 2, 4.0),
            ),
        )
        u0 = initial_approx(spec, ())
        assert u0.coeffs[:3] == (2.0, -1.0, 2.0)


class TestResidual:
    def test_first_builtin_degree_four_coefficient(self):
        """The degree-4 residual coefficient is the free constant plus the
        forcing expansion's contribution 107/24."""
        for a in (0.0, 0.37):
            v = initial_approx(builtin(1), (a, 0.0, 0.0))
            got = residual(v, builtin(1)).coeffs[4]
            assert got == pytest.approx(a + 107.0 / 24.0, rel=1e-14)

    def test_reference_solution_near_annihilates(self):
        spec = with_settings(builtin(2), truncation=20)
        ref = expand_exppoly(spec.exact, 20)
        defect = residual(ref, spec)
        sup = max(abs(evaluate(defect, i / 10)) for i in range(11))
        assert sup <= 1e-6

    def test_zero_rhs_low_degree_polynomial(self):
        spec = ProblemSpec(
            order=7,
            domain_end=1.0,
            terms=(),
            bcs=builtin(1).bcs,
        )
        v = initial_approx(spec, (0.3, -0.2, 0.7))
        assert all(c == 0.0 for c in residual(v, spec).coeffs)

    def test_solved_first_builtin_defect(self):
        result = solve(builtin(1))
        defect = residual(result.solution, builtin(1))
        values = [evaluate(defect, i / 10) for i in range(11)]
        assert all(map(math.isfinite, values))
        # the defect vanishes identically at the origin by construction
        assert values[0] == 0.0


class TestCorrectOnce:
    def test_degree_grows_by_order(self):
        v = initial_approx(builtin(1), (0.0, 0.0, 0.0))
        assert correct_once(v, builtin(1)).truncation == v.truncation + 7

    def test_first_builtin_degree_eleven_coefficient(self):
        for a in (0.0, 0.37):
            v = initial_approx(builtin(1), (a, 0.0, 0.0))
            u1 = sub(correct_once(v, builtin(1)), pad_to(v, v.truncation + 7))
            expect = -107.0 / 39916800.0 - a / 1663200.0
            assert u1.coeffs[11] == pytest.approx(expect, rel=1e-14)

    def test_second_builtin_degree_eleven_coefficient(self):
        for a in (0.0, 0.37):
            v = initial_approx(builtin(2), (a, 0.0, 0.0))
            u1 = sub(correct_once(v, builtin(2)), pad_to(v, v.truncation + 7))
            expect = -1.0 / 39916800.0 + a / 831600.0
            assert u1.coeffs[11] == pytest.approx(expect, rel=1e-14)

    def test_leading_correction_coefficients_first_builtin(self):
        v = initial_approx(builtin(1), (0.0, 0.0, 0.0))
        u1 = sub(correct_once(v, builtin(1)), pad_to(v, v.truncation + 7))
        assert u1.coeffs[7] == pytest.approx(-1.0 / 144.0, rel=1e-14)
        assert u1.coeffs[8] == pytest.approx(-1.0 / 840.0, rel=1e-14)
        assert all(c == 0.0 for c in u1.coeffs[:7])

    def test_fixed_point_when_residual_vanishes(self):
        spec = ProblemSpec(order=7, domain_end=1.0, terms=(), bcs=builtin(1).bcs)
        v = initial_approx(spec, (0.1, 0.2, 0.3))
        out = correct_once(v, spec)
        assert out.coeffs[: v.truncation + 1] == v.coeffs
        assert all(c == 0.0 for c in out.coeffs[v.truncation + 1 :])

    @pytest.mark.parametrize("order,head", [(2, (1.0,)), (3, (1.0, -2.0)), (5, (0.5, 3.0))])
    def test_series_shorter_than_the_order_is_zero_padded(self, order, head):
        # F(u) = 1 + u on v in ring W < m - 1: T_{m-1}v is v itself, and
        # I^m F(v) puts F(v)_j j!/(j+m)! at degree j + m, W + m at the top
        one = ExpPoly.from_terms([(0.0, (1.0,))])
        spec = ProblemSpec(
            order=order,
            domain_end=1.0,
            terms=(RhsTerm(one, ()), RhsTerm(one, (0,))),
            bcs=tuple(BoundaryCondition(0.0, j, 0.0) for j in range(order)),
        )
        w = len(head) - 1
        out = correct_once(make_series(head, w), spec)
        f = (1.0 + head[0], *head[1:])
        integral = [c * math.factorial(j) / math.factorial(j + order) for j, c in enumerate(f)]
        assert out.truncation == w + order
        assert out.coeffs == pytest.approx(
            (*head, *[0.0] * (order - len(head)), *integral), rel=1e-15
        )


class TestHeCoefficients:
    def test_square_nonlinearity(self):
        # F(u) = u^2: order 0 is u0^2, order 1 is 2 u0 u1
        spec = ProblemSpec(
            order=1,
            domain_end=1.0,
            terms=(RhsTerm(ExpPoly.from_terms([(0.0, (1.0,))]), (0, 0)),),
            bcs=(BoundaryCondition(0.0, 0, 0.0),),
        )
        w = 8
        rng = random.Random(11)
        u0 = make_series([rng.uniform(-1, 1) for _ in range(4)], w)
        u1 = make_series([rng.uniform(-1, 1) for _ in range(4)], w)
        hs = he_coefficients(spec, (u0, u1))
        assert len(hs) == 2
        expect0 = mul(u0, u0)
        expect1 = scale(mul(u0, u1), 2.0)
        assert hs[0].coeffs == pytest.approx(expect0.coeffs, rel=1e-14, abs=1e-18)
        assert hs[1].coeffs == pytest.approx(expect1.coeffs, rel=1e-14, abs=1e-18)

    def test_product_with_derivative(self):
        # F(u) = u u': order 1 is u0 u1' + u1 u0'
        spec = ProblemSpec(
            order=2,
            domain_end=1.0,
            terms=(RhsTerm(ExpPoly.from_terms([(0.0, (1.0,))]), (0, 1)),),
            bcs=(
                BoundaryCondition(0.0, 0, 0.0),
                BoundaryCondition(0.0, 1, 0.0),
            ),
        )
        w = 8
        rng = random.Random(12)
        u0 = make_series([rng.uniform(-1, 1) for _ in range(4)], w)
        u1 = make_series([rng.uniform(-1, 1) for _ in range(4)], w)
        hs = he_coefficients(spec, (u0, u1))
        expect1 = add(
            mul(u0, differentiate(u1, 1)), mul(u1, differentiate(u0, 1))
        )
        assert hs[1].coeffs == pytest.approx(expect1.coeffs, rel=1e-13, abs=1e-18)

    def test_linear_term_passes_parts_through(self):
        spec = ProblemSpec(
            order=1,
            domain_end=1.0,
            terms=(RhsTerm(ExpPoly.from_terms([(0.0, (1.0,))]), (0,)),),
            bcs=(BoundaryCondition(0.0, 0, 0.0),),
        )
        w = 6
        rng = random.Random(13)
        parts = tuple(
            make_series([rng.uniform(-1, 1) for _ in range(4)], w) for _ in range(3)
        )
        hs = he_coefficients(spec, parts)
        for h, u in zip(hs, parts):
            assert h.coeffs == pytest.approx(u.coeffs, rel=1e-14, abs=1e-18)

    def test_forcing_contributes_only_to_order_zero(self):
        spec = ProblemSpec(
            order=1,
            domain_end=1.0,
            terms=(RhsTerm(ExpPoly.from_terms([(1.0, (2.0,))])),),
            bcs=(BoundaryCondition(0.0, 0, 0.0),),
        )
        w = 6
        parts = (make_series([1.0], w), make_series([1.0], w))
        hs = he_coefficients(spec, parts)
        assert hs[0].coeffs == expand_exppoly(spec.terms[0].coeff, w).coeffs
        assert all(c == 0.0 for c in hs[1].coeffs)

    def test_sum_identity_on_builtins(self):
        """Summing the orders against the embedding parameter reproduces a
        direct application of F to the combined series, in the same ring."""
        rng = random.Random(7)
        w = 12
        for n in range(1, 5):
            spec = builtin(n)
            for _ in range(3):
                u0 = make_series([rng.uniform(-1, 1) for _ in range(7)], w)
                u1 = make_series([rng.uniform(-1, 1) for _ in range(7)], w)
                zero = make_series([], w)
                hs = he_coefficients(spec, (u0, u1, zero, zero))
                for p in (0.3, 1.0):
                    combo = add(u0, scale(u1, p))
                    direct = apply_rhs_direct(spec, combo)
                    for x in (0.3, 0.7, 1.0):
                        got = sum(evaluate(h, x) * p**k for k, h in enumerate(hs))
                        ref = evaluate(direct, x)
                        assert abs(got - ref) <= 1e-12 * max(abs(ref), 1e-30)

    def test_sum_identity_three_factors_three_parts(self):
        """A cubic term u u u' on u0 + p u1 + p^2 u2 has p-degree 6, so seven
        parts complete the expansion; every pick meets nonzero data."""
        spec = ProblemSpec(
            order=2,
            domain_end=1.0,
            terms=(RhsTerm(ExpPoly.from_terms([(0.5, (1.0, -0.3))]), (0, 0, 1)),),
            bcs=(
                BoundaryCondition(0.0, 0, 0.0),
                BoundaryCondition(0.0, 1, 0.0),
            ),
        )
        w = 10
        rng = random.Random(17)
        u0, u1, u2 = (
            make_series([rng.uniform(-1, 1) for _ in range(6)], w) for _ in range(3)
        )
        zero = make_series([], w)
        hs = he_coefficients(spec, (u0, u1, u2) + (zero,) * 4)
        assert len(hs) == 7
        for p in (0.3, -0.8, 1.0):
            combo = add(u0, add(scale(u1, p), scale(u2, p * p)))
            direct = apply_rhs_direct(spec, combo)
            for x in (0.3, 0.7, 1.0):
                got = sum(evaluate(h, x) * p**k for k, h in enumerate(hs))
                ref = evaluate(direct, x)
                assert abs(got - ref) <= 1e-12 * max(abs(ref), 1e-30)

    def test_rejects_mixed_truncations(self):
        with pytest.raises(ValueError):
            he_coefficients(
                builtin(1), (make_series([1.0], 5), make_series([1.0], 6))
            )
        with pytest.raises(ValueError, match="at least one expansion part"):
            he_coefficients(builtin(1), ())


class TestPicks:
    @pytest.mark.parametrize("r", range(6))
    @pytest.mark.parametrize("k", range(4))
    def test_matches_product_filter(self, r, k):
        # the lexicographic order of the filter fixes the order of F's sums
        for factors in product(range(3), repeat=r):
            reference = tuple(
                tuple(zip(pick, factors))
                for pick in product(range(k + 1), repeat=r)
                if sum(pick) == k
            )
            assert _picks(factors, k) == reference

    @pytest.mark.parametrize("r", range(1, 11))
    def test_structure(self, r):
        # beyond the filter's reach: C(k + r - 1, r - 1) picks in strictly
        # increasing order, each summing to k, factors left to right
        factors = tuple(range(r))
        for k in range(7):
            picks = _picks(factors, k)
            assert len(picks) == math.comb(k + r - 1, r - 1)
            indices = [tuple(i for i, _ in pick) for pick in picks]
            assert all(a < b for a, b in zip(indices, indices[1:]))
            assert all(sum(pick) == k for pick in indices)
            assert all(tuple(d for _, d in pick) == factors for pick in picks)

    def test_many_factors(self):
        # a tangent's picks are the 64 ways to put one unit on one factor;
        # filtering all 2**64 index tuples would never finish
        picks = _picks((0,) * 64, 1)
        assert len(picks) == 64
        assert picks[0][-1] == (1, 0)
        assert picks[-1][0] == (1, 0)
        assert all(sum(i for i, _ in pick) == 1 for pick in picks)


class TestIterate:
    def test_zero_iterations_returns_initial(self):
        iterates = iterate(builtin(1), (0.1, 0.2, 0.3), 0)
        assert iterates[-1].coeffs == initial_approx(
            builtin(1), (0.1, 0.2, 0.3)
        ).coeffs

    def test_state_shape_and_consistency(self):
        iterates = iterate(builtin(3), (0.0, 0.0, 0.0), 3)
        assert len(iterates) == 4
        for k in range(1, 4):
            assert iterates[k].truncation == 12 + 7 * k

    @pytest.mark.parametrize("known", [0, 1, 3, 5])
    def test_known_iterates_are_continued_bit_for_bit(self, known, monkeypatch):
        spec = builtin(2)
        constants = (0.1, -0.2, 0.05)
        fresh = iterate(spec, constants, 3)
        start = iterate(spec, constants, known)
        original = engine.correct_once
        calls = []

        def counted(v, spec):
            calls.append(v.truncation)
            return original(v, spec)

        monkeypatch.setattr(engine, "correct_once", counted)
        got = iterate(spec, constants, 3, start)
        assert [[c.hex() for c in v.coeffs] for v in got] == [
            [c.hex() for c in v.coeffs] for v in fresh
        ]
        # the reused iterates are the same objects; only the missing corrections run
        assert all(a is b for a, b in zip(got, start[:4]))
        assert len(calls) == 3 - min(known, 3)

    def test_corrections_after_known_iterates_are_checked_and_numbered(self):
        spec = builtin(1)
        v0, v1 = iterate(spec, (0.0, 0.0, 0.0), 1)
        overflowed = engine._trusted((math.inf,) + v1.coeffs[1:])
        with pytest.raises(engine.NonFiniteIterateError, match="correction 2 "):
            iterate(spec, (0.0, 0.0, 0.0), 2, (v0, overflowed))

    def test_default_depth_comes_from_spec(self):
        spec = with_settings(builtin(1), iterations=2)
        assert iterate(spec, (0.0, 0.0, 0.0))[-1].truncation == 12 + 14
        with pytest.raises(ValueError, match="n_iter must be non-negative"):
            iterate(spec, (0.0, 0.0, 0.0), -1)

    def test_a_given_count_stays_within_the_degree_cap(self, monkeypatch):
        # builtin 1 has W = 12 and m = 7: 141 corrections reach degree 999,
        # and 142 reach 1,006, so the count is rejected before any runs
        class Corrected(Exception):
            pass

        def correct_once(*args):
            raise Corrected

        monkeypatch.setattr(engine, "correct_once", correct_once)
        with pytest.raises(Corrected):
            iterate(builtin(1), [0.0] * 3, 141)
        message = "^n_iter 142 reaches series degree 1006, above 1000$"
        with pytest.raises(ValueError, match=message):
            iterate(builtin(1), [0.0] * 3, 142)

    def test_integral_float_count_runs_as_an_int(self):
        spec, constants = builtin(2), (0.1, -0.2, 0.05)
        assert iterate(spec, constants, 2.0) == iterate(spec, constants, 2)

    @pytest.mark.parametrize("n_iter", [2.5, "2"])
    def test_non_integral_count_is_named(self, monkeypatch, n_iter):
        monkeypatch.setattr(engine, "correct_once", lambda *args: pytest.fail("ran"))
        with pytest.raises(ValueError, match="^n_iter must be an integer, got "):
            iterate(builtin(1), (0.0, 0.0, 0.0), n_iter)

    def test_origin_conditions_preserved_exactly(self):
        for n in range(1, 5):
            spec = builtin(n)
            iterates = iterate(spec, (0.05,) * spec.unknown_count(), 3)
            u0 = iterates[0]
            for v in iterates:
                for j in range(spec.order):
                    assert v.coeffs[j] == u0.coeffs[j]
                for bc in spec.origin_conditions():
                    got = evaluate_derivative(v, bc.derivative_order, 0.0)
                    assert got == bc.value

    def test_first_order_equivalence_is_coefficient_exact(self):
        """One correction equals the integral of (u0^(m) minus the order-0
        p-expansion), coefficient for coefficient."""
        for n in range(1, 5):
            spec = builtin(n)
            u0 = initial_approx(spec, (0.37,) * spec.unknown_count())
            lifted = pad_to(u0, u0.truncation + spec.order)
            h0 = he_coefficients(spec, (lifted,))[0]
            kernel = CorrectionKernel(spec.order, lifted.truncation)
            expected = kernel.integrate(sub(differentiate(lifted, spec.order), h0))
            got = sub(correct_once(u0, spec), lifted)
            assert got.coeffs == expected.coeffs

    def test_affine_dependence_on_constants_first_builtin(self):
        spec = builtin(1)
        t1 = (0.2, -0.3, 0.11)
        t2 = (-0.07, 0.5, -0.23)
        both = tuple(a + b for a, b in zip(t1, t2))
        s = lambda t: iterate(spec, t, 1)[-1]
        defect = sub(sub(s(both), s(t1)), sub(s(t2), s((0.0, 0.0, 0.0))))
        assert max(abs(c) for c in defect.coeffs) <= 1e-14

    def test_solved_series_spot_coefficients(self):
        r1 = solve(builtin(1))
        assert r1.solution.coeffs[7] == pytest.approx(-0.00694444, abs=1e-8)
        assert r1.solution.coeffs[8] == pytest.approx(-0.00119048, abs=1e-8)
        r2 = solve(builtin(2))
        assert r2.solution.coeffs[7] == pytest.approx(0.000198413, abs=1e-9)

    def test_solved_series_value_at_half(self):
        r1 = solve(builtin(1))
        assert evaluate(r1.solution, 0.5) == pytest.approx(0.41218, abs=1e-5)


def highest_factor_order(spec):
    return max((d for term in spec.terms for d in term.factors), default=0)


def settled_length(spec, k):
    """Number of leading coefficients of v_k no later correction changes.

    Coefficient n of F(v) reads v up to degree n + d_max, and the integral
    shifts it up by m, so each correction settles m - d_max more of them.
    """
    return spec.order + k * (spec.order - highest_factor_order(spec))


def taylor_recurrence(spec, head, top):
    """Exact Taylor coefficients c_0..c_top of the solution with this head.

    ``c_{n+m} = F_n * n!/(n+m)!``, with each term's products extended one
    degree at a time by the Cauchy-product recurrence.
    """
    m = spec.order
    c = [Fraction(h) for h in head]
    # per term: its exponential-polynomial expansion, then running products
    expansions = []
    for term in spec.terms:
        out = [Fraction(0)] * (top + 1)
        for part in term.coeff.terms:
            weight = [Fraction(1)]
            for k in range(1, top + 1):
                weight.append(weight[-1] * Fraction(part.rate) / k)
            for j, p in enumerate(part.poly):
                for n in range(j, top + 1):
                    out[n] += Fraction(p) * weight[n - j]
        expansions.append(out)
    products = [[[] for _ in term.factors] for term in spec.terms]
    for n in range(top + 1 - m):
        f_n = Fraction(0)
        for term, expansion, prods in zip(spec.terms, expansions, products):
            left = expansion
            for d, prod in zip(term.factors, prods):
                deriv = [
                    c[i + d] * math.factorial(i + d) / math.factorial(i)
                    for i in range(n + 1)
                ]
                prod.append(sum(left[j] * deriv[n - j] for j in range(n + 1)))
                left = prod
            f_n += left[n]
        c.append(f_n * Fraction(math.factorial(n), math.factorial(n + m)))
    return c


class TestPicardForm:
    """The correction keeps v's first m coefficients and adds the m-fold
    integral of F(v), so each correction settles a growing prefix."""

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=4),
        w=st.integers(min_value=7, max_value=30),
        k=st.integers(min_value=0, max_value=3),
        data=st.data(),
    )
    def test_settled_prefix_is_bit_identical(self, n, w, k, data):
        spec = with_settings(builtin(n), truncation=w)
        constants = data.draw(
            st.lists(
                st.floats(min_value=-4.0, max_value=4.0),
                min_size=spec.unknown_count(),
                max_size=spec.unknown_count(),
            )
        )
        iterates = iterate(spec, constants, k + 1)
        p = settled_length(spec, k)
        before, after = iterates[k].coeffs[:p], iterates[k + 1].coeffs[:p]
        assert [c.hex() for c in after] == [c.hex() for c in before]

    @pytest.mark.parametrize("w,k", [(12, 4), (30, 3)])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_settled_prefix_matches_taylor_recurrence(self, n, w, k):
        spec = with_settings(builtin(n), truncation=w)
        rng = random.Random(100 * n + w + k)
        constants = [rng.uniform(-1.0, 1.0) for _ in range(spec.unknown_count())]
        iterates = iterate(spec, constants, k)
        p = settled_length(spec, k)
        exact = taylor_recurrence(spec, iterates[0].coeffs[: spec.order], p - 1)
        for got, want in zip(iterates[k].coeffs[:p], exact):
            assert abs(Fraction(got) - want) <= Fraction(1, 10**10) * abs(want)


class TestTangent:
    @pytest.mark.parametrize("w,k", [(12, 1), (30, 3)])
    def test_affine_tangent_is_the_homogeneous_iterate(self, w, k):
        # builtin 1 is u^(7) = f - u: its tangent along x^j is the iterate of
        # u^(7) = -u from x^j, with the same operations in the same order
        spec = with_settings(builtin(1), truncation=w, iterations=k)
        homogeneous = replace(
            spec,
            terms=tuple(t for t in spec.terms if t.factors),
            bcs=tuple(
                replace(bc, value=0.0) if bc.point == 0.0 else bc for bc in spec.bcs
            ),
        )
        rng = random.Random(w + k)
        constants = [rng.uniform(-1.0, 1.0) for _ in range(spec.unknown_count())]
        swept = _tangents(spec, iterate(spec, constants))
        assert len(swept) == spec.unknown_count()
        for j, got in enumerate(swept):
            seed = [0.0] * spec.unknown_count()
            seed[j] = 1.0
            want = iterate(homogeneous, seed)[-1]
            assert [c.hex() for c in got] == [c.hex() for c in want.coeffs]


def cubic_spec(terms):
    """Order 3 on [0, 1], u(0) = 0.2, u(1) = 0.1, u'(1) = -0.3: two unknowns,
    W = 14, k = 2."""
    return ProblemSpec(
        order=3,
        domain_end=1.0,
        terms=tuple(
            RhsTerm(ExpPoly.from_terms([(rate, poly)]), factors)
            for rate, poly, factors in terms
        ),
        bcs=(
            BoundaryCondition(0.0, 0, 0.2),
            BoundaryCondition(1.0, 0, 0.1),
            BoundaryCondition(1.0, 1, -0.3),
        ),
        truncation=14,
        iterations=2,
    )


# repeated and mixed factors, which no builtin has: (factors, products that
# form the distinct chains, derivative orders of the linearization)
GROUPED_TERMS = [
    ((0, 0, 1), 4, [0, 1]),  # chains u u' (twice) and u u
    ((1, 1), 1, [1]),  # chain u' (twice)
    ((0, 2, 0), 4, [0, 2]),  # chains u u'' (twice) and u u
]
# an affine and a nonlinear term share d = 0, with forcing alongside
MIXED_TERMS = [
    (0.5, (0.3, -0.2), (0,)),
    (0.0, (0.4,), (0, 2)),
    (-0.3, (0.25, 0.1), (1, 1, 0)),
    (1.0, (1.0, -1.0), ()),
]
LINEARIZED = pytest.mark.parametrize(
    "terms",
    [[(0.2, (1.0, 0.5), f)] for f, _, _ in GROUPED_TERMS] + [MIXED_TERMS],
    ids=["0-0-1", "1-1", "0-2-0", "mixed"],
)


# the builtins at the paper's and the stretched settings, and the mixed terms
JACOBIAN_SPECS = {
    **{
        f"{n}-{w}-{k}": lambda n=n, w=w, k=k: with_settings(builtin(n), w, k)
        for n in range(1, 5)
        for w, k in ((12, 1), (30, 3))
    },
    "mixed": lambda: cubic_spec(MIXED_TERMS),
}


class TestLinearization:
    """``F'(v) dv = sum_d dv^(d) L_d`` against order 1 of He's polynomials,
    which forms every pick's products afresh, and against central
    differences of the whole solve map."""

    @staticmethod
    def random_series(rng, w):
        return make_series([rng.uniform(-1.0, 1.0) for _ in range(w + 1)], w)

    @LINEARIZED
    def test_matches_first_he_order(self, terms):
        spec = cubic_spec(terms)
        rng = random.Random(len(terms) * 31 + sum(terms[0][2]))
        w = spec.truncation
        for _ in range(5):
            v, dv = self.random_series(rng, w), self.random_series(rng, w)
            got = _apply(_linearization(spec, v.coeffs), dv.coeffs)
            want = _he_order(spec, (v.coeffs, dv.coeffs), 1)
            size = max(map(abs, want))
            assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-13 * size

    @pytest.mark.parametrize("factors,products,orders", GROUPED_TERMS)
    def test_each_distinct_chain_is_formed_once(
        self, monkeypatch, factors, products, orders
    ):
        spec = cubic_spec([(0.2, (1.0, 0.5), factors)])
        calls = []
        monkeypatch.setattr(
            engine,
            "_product",
            lambda f, g, zeros=None: calls.append(1) or _product(f, g, zeros),
        )
        linear = _linearization(spec, self.random_series(random.Random(5), 14).coeffs)
        assert len(calls) == products
        assert sorted(d for d, _, _ in linear) == orders
        # each weight comes with its own zero count
        assert all(zeros == weight.count(0.0) for _, weight, zeros in linear)

    def test_sparser_operand_comes_first(self, monkeypatch):
        # a product skips the zero coefficients of its first operand only; the
        # second spec is affine, with a dense coefficient against seeds x^j
        for spec in (
            with_settings(builtin(2), truncation=30, iterations=3),
            cubic_spec(MIXED_TERMS[:1]),
        ):
            iterates = iterate(spec, [0.1] * spec.unknown_count())
            operands = []

            def spy(f, g, zeros=None):
                # every tangent product is handed its first operand's count
                assert zeros == f.count(0.0)
                operands.append([len(s) - s.count(0.0) for s in (f, g)])
                return _product(f, g, zeros)

            with monkeypatch.context() as patch:
                patch.setattr(engine, "_product", spy)
                _tangents(spec, iterates)
            assert all(first <= second for first, second in operands)
            assert any(first < second for first, second in operands)

    @pytest.mark.parametrize("case", sorted(JACOBIAN_SPECS))
    def test_jacobian_entries_are_the_tangents_values(self, case):
        # entry (i, j) is condition i's derivative value on the tangent
        # along constant j, bit for bit as evaluate_derivative reads it
        spec = JACOBIAN_SPECS[case]()
        rng = random.Random(7)
        iterates = iterate(spec, [rng.uniform(-0.5, 0.5) for _ in range(spec.unknown_count())])
        tangents = [make_series(dv, len(dv) - 1) for dv in _tangents(spec, iterates)]
        want = [
            [evaluate_derivative(dv, bc.derivative_order, bc.point).hex() for dv in tangents]
            for bc in spec.off_origin_conditions()
        ]
        rows = jacobian(spec, iterates)
        assert len(rows) == spec.unknown_count() > 0
        assert [[entry.hex() for entry in row] for row in rows] == want

    @LINEARIZED
    def test_jacobian_matches_central_differences(self, terms):
        spec = cubic_spec(terms)
        rng = random.Random(len(terms))
        constants = [rng.uniform(-0.5, 0.5) for _ in range(spec.unknown_count())]
        exact = jacobian(spec, iterate(spec, constants))
        oracle = fd_jacobian(spec, constants)
        for row_e, row_o in zip(exact, oracle):
            for a, b in zip(row_e, row_o):
                assert abs(a - b) <= 1e-6 * max(abs(a), abs(b))
