"""Validated edges, unchecked ring operations and cached solve invariants.

The ring operations build their results without validation and read
derivative, kernel and expansion tables from caches.  These tests pin that
down: the outputs equal, bit for bit, both the values recorded before the
caches existed and a local copy of the original loop formulas.
"""

import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vihpm.engine import NonFiniteIterateError, _picard, iterate
from vihpm.kernel import CorrectionKernel
from vihpm.problems import (
    BoundaryCondition,
    ProblemSpec,
    RhsTerm,
    builtin,
    with_settings,
)
from vihpm.series import (
    CACHE_SIZE,
    ExpPoly,
    Series,
    _expansion,
    _trusted,
    add,
    differentiate,
    evaluate_derivative,
    expand_exppoly,
    make_series,
    mul,
    pad_to,
    sub,
)
from vihpm.solver import solve

SOLVE_BITS = json.loads(
    (Path(__file__).parent / "data" / "solve_bits.json").read_text()
)


def bits(values):
    return [float(v).hex() for v in values]


# -- the original loop formulas, kept here as the oracle -------------------


def oracle_differentiate(coeffs, order):
    w = len(coeffs) - 1
    out = [0.0] * (w + 1)
    for k in range(w + 1 - order):
        fall = 1.0
        for i in range(k + 1, k + order + 1):
            fall *= i
        out[k] = coeffs[k + order] * fall
    return out


def oracle_integrate(coeffs, m):
    w = len(coeffs) - 1
    out = [0.0] * (w + 1)
    for j, c in enumerate(coeffs):
        k = j + m
        if k > w:
            break
        ratio = 1.0
        for i in range(j + 1, k + 1):
            ratio /= i
        out[k] = -c * ratio
    return out


def oracle_expand(e, truncation):
    out = [0.0] * (truncation + 1)
    for term in e.terms:
        weights = [1.0]
        for k in range(1, truncation + 1):
            weights.append(weights[-1] * term.rate / k)
        for j, p in enumerate(term.poly):
            if p == 0.0 or j > truncation:
                continue
            for n in range(j, truncation + 1):
                out[n] += p * weights[n - j]
    return out


# -- strategies ------------------------------------------------------------

signed_coeffs = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(min_value=-8.0, max_value=8.0, allow_nan=False),
)
rates = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0]),
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
)
exppolys = st.lists(
    st.tuples(rates, st.lists(signed_coeffs, min_size=1, max_size=6)),
    min_size=1,
    max_size=3,
).map(ExpPoly.from_terms)


class TestCachedTablesMatchOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        order=st.integers(min_value=0, max_value=8),
        truncations=st.lists(
            st.integers(min_value=0, max_value=40), min_size=1, max_size=4
        ),
        e=exppolys,
        data=st.data(),
    )
    def test_random_order_truncation_and_exppoly(self, order, truncations, e, data):
        # one ExpPoly and one order at several degrees in turn: a cache
        # keyed on too little returns another degree's table; each degree
        # differentiates a prefix of one drawn coefficient list
        top = max(truncations)
        coeffs = data.draw(
            st.lists(signed_coeffs, min_size=top + 1, max_size=top + 1)
        )
        for w in truncations:
            assert bits(expand_exppoly(e, w).coeffs) == bits(oracle_expand(e, w))
            f = Series(tuple(coeffs[: w + 1]))
            assert bits(differentiate(f, order).coeffs) == bits(
                oracle_differentiate(f.coeffs, order)
            )
            if 1 <= order <= w:
                image = CorrectionKernel(order, w).integrate(f)
                assert bits(image.coeffs) == bits(
                    oracle_integrate(f.coeffs, order)
                )

    def test_equal_exppolys_with_signed_zeros(self):
        # equal keys that differ only in the sign of zero share one entry
        plus = ExpPoly.from_terms([(0.0, (1.0, 0.0, 2.0)), (1.0, (0.0, 3.0))])
        minus = ExpPoly.from_terms([(-0.0, (1.0, -0.0, 2.0)), (1.0, (-0.0, 3.0))])
        assert plus == minus
        for w in (3, 9, 3):
            for e in (plus, minus):
                assert bits(expand_exppoly(e, w).coeffs) == bits(oracle_expand(e, w))


# ring values as the unchecked arithmetic can leave them, overflow included
ring_values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan]),
    st.floats(),
)


def oracle_horner(coeffs, x):
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


class TestDerivativeWithoutCopies:
    @settings(max_examples=100, deadline=None)
    @given(
        w=st.integers(min_value=0, max_value=40),
        x=st.one_of(
            st.sampled_from([0.0, 0.5, 1.0]),
            st.floats(min_value=0.0, max_value=2.0),
        ),
        data=st.data(),
    )
    def test_evaluate_derivative_is_horner_on_the_oracle_derivative(self, w, x, data):
        # validated series and unchecked ring results, overflow included
        d = data.draw(st.integers(min_value=0, max_value=w + 2))
        values = st.lists(signed_coeffs, min_size=w + 1, max_size=w + 1)
        make = Series
        if data.draw(st.booleans()):
            values = st.lists(ring_values, min_size=w + 1, max_size=w + 1)
            make = _trusted
        f = make(tuple(data.draw(values)))
        expected = oracle_horner(oracle_differentiate(f.coeffs, d), x)
        assert bits([evaluate_derivative(f, d, x)]) == bits([expected])

    @pytest.mark.parametrize("x", [0.0, 0.5])
    def test_all_negative_zero_series(self, x):
        # a derivative of -0.0s alone is where the sign of the result shows
        # that Horner starts from a +0.0 accumulator times x
        f = Series((-0.0,) * 4)
        for d in range(6):
            expected = oracle_horner(oracle_differentiate(f.coeffs, d), x)
            assert bits([evaluate_derivative(f, d, x)]) == bits([expected])

    def test_order_zero_shares_the_series(self):
        f = Series((1.0, -0.0, 2.5))
        assert differentiate(f, 0) is f

    def test_negative_order_rejected(self):
        f = Series((1.0, 2.0))
        with pytest.raises(ValueError, match="non-negative"):
            differentiate(f, -1)
        with pytest.raises(ValueError, match="non-negative"):
            evaluate_derivative(f, -1, 0.5)


class TestPicardStep:
    @settings(max_examples=100, deadline=None)
    @given(m=st.integers(min_value=1, max_value=7), data=st.data())
    def test_matches_the_kernel_applied_to_the_lifted_series(self, m, data):
        # v carries at least the m coefficients that the step keeps
        w = data.draw(st.integers(min_value=m - 1, max_value=30))
        v, f = (
            _trusted(tuple(data.draw(st.lists(ring_values, min_size=w + 1, max_size=w + 1))))
            for _ in range(2)
        )
        top = w + m
        head = _trusted(v.coeffs[:m] + (0.0,) * (top + 1 - m))
        expected = sub(head, CorrectionKernel(m, top).integrate(pad_to(f, top)))
        assert bits(_picard(v, f, m).coeffs) == bits(expected.coeffs)


class TestExpansionCache:
    def test_more_exppolys_than_entries_at_rising_falling_and_mixed_degrees(self):
        # each ExpPoly has its own constant term, so all of them are distinct
        rng = random.Random(12)
        pool = [
            ExpPoly.from_terms(
                [(rng.choice([0.0, -0.0, 1.5, -2.0]), (float(i), 0.0, -0.0, rng.uniform(-4, 4)))]
                + [(rng.uniform(-3, 3), tuple(rng.uniform(-2, 2) for _ in range(rng.randint(1, 5))))]
            )
            for i in range(CACHE_SIZE + 40)
        ]
        schedules = ([0, 3, 11, 26, 40], [40, 26, 11, 3, 0], [11, 0, 26, 3, 40, 11])
        earlier = []
        for schedule in schedules:
            # degree-major, so the requests for one ExpPoly interleave with
            # every other's and the pool overruns the cache between them
            for w in schedule:
                for e in pool:
                    s = expand_exppoly(e, w)
                    assert bits(s.coeffs) == bits(oracle_expand(e, w))
                    assert _expansion.cache_info().currsize <= CACHE_SIZE
                    if len(earlier) < 2 * len(pool):
                        earlier.append((s, bits(s.coeffs)))
        assert _expansion.cache_info().currsize == CACHE_SIZE
        # a returned series is not touched when its expansion is extended
        for s, recorded in earlier:
            assert bits(s.coeffs) == recorded

    def test_one_expansion_per_exppoly_serves_every_degree(self):
        e = ExpPoly.from_terms([(0.7, (1.0, -2.0, 0.5)), (-1.3, (0.0, 3.0))])
        expand_exppoly(e, 30)
        misses = _expansion.cache_info().misses
        for w in (0, 7, 30, 12, 29):
            assert bits(expand_exppoly(e, w).coeffs) == bits(oracle_expand(e, w))
        assert _expansion.cache_info().misses == misses


@pytest.mark.parametrize("case", sorted(SOLVE_BITS))
def test_solve_output_bits_frozen(case):
    """Builtins 1-4 at (W=12, k=1) and (W=30, k=3), recorded before the
    ring operations stopped validating their results; the W=30 coefficients
    were recorded again when the correction became T_{m-1} v + I^m F(v),
    and every entry when Newton's Jacobian became exact."""
    n, w, k = (int(part) for part in case.split("/"))
    result = solve(with_settings(builtin(n), truncation=w, iterations=k))
    assert bits(result.constants) == SOLVE_BITS[case]["constants"]
    assert bits(result.solution.coeffs) == SOLVE_BITS[case]["coeffs"]


class TestValidatedEdges:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_series_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Series((1.0, bad))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_make_series_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            make_series([0.0, bad], 4)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="at least one coefficient"):
            Series(())
        with pytest.raises(ValueError, match="non-negative"):
            make_series((), -1)


class TestUncheckedRing:
    def test_overflow_propagates_through_ring_ops(self):
        big = Series((1e200, 1.0))
        product = mul(big, big)
        assert product.coeffs[0] == math.inf
        assert math.isnan(add(product, mul(big, Series((-1e200, 0.0)))).coeffs[0])

    def test_iterate_reports_overflow_as_non_finite(self):
        spec = ProblemSpec(
            order=2,
            domain_end=1.0,
            terms=(RhsTerm(ExpPoly.from_terms([(0.0, (1e300,))]), (0, 0)),),
            bcs=(
                BoundaryCondition(0.0, 0, 1e10),
                BoundaryCondition(0.0, 1, 0.0),
            ),
        )
        with pytest.raises(NonFiniteIterateError, match="correction 1") as info:
            iterate(spec, ())
        assert not isinstance(info.value, ValueError)
