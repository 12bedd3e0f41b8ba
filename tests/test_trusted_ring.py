"""Validated edges, unchecked ring operations and cached solve invariants.

The ring operations build their results without validation, the product
adds four adjacent nonzero rows per pass and every other row alone, and
derivative, kernel, expansion and tangent-chain tables are read from
caches; specs compute their constant tables once; the dense Newton solve
picks its pivots with a loop of its own.  These tests pin
that down: the outputs equal, bit for bit, both the values recorded before
the caches existed and a local copy of the original formulas.
"""

import json
import math
import random
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vihpm.engine import (
    NonFiniteIterateError,
    _picard,
    _rests,
    initial_approx,
    iterate,
    tangents,
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
    CACHE_SIZE,
    ExpPoly,
    ExpTerm,
    Series,
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
from vihpm.solver import SingularJacobianError, _solve_dense, solve

from ring_helpers import reference_mul, reference_solve_dense, replace

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


# -- the Newton pass's inputs, built without re-validation -------------------


def validated_initial_approx(spec, constants):
    """The initial polynomial as :func:`make_series` validates and pads it."""
    coeffs = [0.0] * spec.order
    for bc in spec.origin_conditions():
        coeffs[bc.derivative_order] = bc.value / math.factorial(bc.derivative_order)
    for degree, value in zip(spec.unknown_degrees(), constants):
        coeffs[degree] = float(value)
    return make_series(coeffs, spec.truncation)


def oracle_condition_lists(spec):
    origin = tuple(bc for bc in spec.bcs if bc.point == 0.0)
    pinned = {bc.derivative_order for bc in origin}
    return (
        origin,
        tuple(bc for bc in spec.bcs if bc.point != 0.0),
        tuple(j for j in range(spec.order) if j not in pinned),
    )


def condition_lists(spec):
    return (
        spec.origin_conditions(),
        spec.off_origin_conditions(),
        spec.unknown_degrees(),
    )


condition_values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e300, -1e-300]),
    st.floats(allow_nan=False, allow_infinity=False),
)
free_constants = st.one_of(
    condition_values, st.integers(min_value=-(2**62), max_value=2**62)
)


@st.composite
def random_specs(draw):
    order = draw(st.integers(min_value=1, max_value=7))
    origin = draw(st.sets(st.integers(min_value=0, max_value=order - 1)))
    end = draw(st.sampled_from([0.5, 1.0, 2.0]))
    bcs = tuple(
        BoundaryCondition(0.0 if j in origin else end, j, draw(condition_values))
        for j in range(order)
    )
    truncation = draw(st.integers(min_value=order, max_value=40))
    return ProblemSpec(
        order=order, domain_end=end, terms=(), bcs=bcs, truncation=truncation
    )


specs = st.one_of(
    st.builds(
        lambda n, w: with_settings(builtin(n), truncation=w),
        st.integers(min_value=1, max_value=4),
        st.sampled_from([7, 12, 30]),
    ),
    random_specs(),
)


class TestNewtonPassInputs:
    @settings(max_examples=150, deadline=None)
    @given(spec=specs, data=st.data())
    def test_initial_approx_is_the_validated_polynomial(self, spec, data):
        q = spec.unknown_count()
        constants = data.draw(st.lists(free_constants, min_size=q, max_size=q))
        v = initial_approx(spec, constants)
        assert bits(v.coeffs) == bits(validated_initial_approx(spec, constants).coeffs)
        assert all(type(c) is float for c in v.coeffs)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_constant_still_rejected(self, bad):
        spec = builtin(4)
        for call in (initial_approx, iterate):
            for j in range(spec.unknown_count()):
                constants = [0.0] * spec.unknown_count()
                constants[j] = bad
                with pytest.raises(ValueError, match="^series coefficients must be finite$"):
                    call(spec, constants)

    @pytest.mark.parametrize("w", [7, 12, 30])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_tangent_seeds_are_the_validated_seeds(self, n, w):
        # with no correction to carry them through, the tangents are the seeds
        spec = with_settings(builtin(n), truncation=w)
        seeds = tangents(spec, iterate(spec, [0.0] * spec.unknown_count(), 0))
        expected = [
            make_series((0.0,) * degree + (1.0,), w).coeffs
            for degree in spec.unknown_degrees()
        ]
        assert [bits(s.coeffs) for s in seeds] == [bits(e) for e in expected]

    def test_condition_lists_are_computed_once(self):
        for n in range(1, 5):
            spec = builtin(n)
            assert condition_lists(spec) == oracle_condition_lists(spec)
            for first, again in zip(condition_lists(spec), condition_lists(spec)):
                assert first is again
            assert spec.unknown_count() == len(spec.unknown_degrees())

    def test_equality_hash_and_repr_see_the_fields_alone(self):
        for n in range(1, 5):
            a, b = builtin(n), builtin(n)
            assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
            assert repr(a) == field_repr(a)

    def test_copies_compute_their_own_lists(self):
        base = builtin(1)
        assert condition_lists(with_settings(base, truncation=30)) == condition_lists(base)
        moved = replace(base, bcs=tuple(BoundaryCondition(0.0, j, 1.0) for j in range(7)))
        assert condition_lists(moved) == oracle_condition_lists(moved)
        assert moved.unknown_degrees() == () and moved.unknown_count() == 0


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
        first = {}
        for schedule in schedules:
            # degree-major, so the requests for one ExpPoly interleave with
            # every other's, and there are more ExpPolys than any cache holds
            for w in schedule:
                for i, e in enumerate(pool):
                    s = expand_exppoly(e, w)
                    assert bits(s.coeffs) == bits(oracle_expand(e, w))
                    # a repeated degree returns the series it returned before
                    assert first.setdefault((i, w), s) is s
                    if len(earlier) < 2 * len(pool):
                        earlier.append((s, bits(s.coeffs)))
        # the expansion holds the series up to the highest degree asked
        for e in pool:
            assert max(e._expansion) == 40
        # a returned series is not touched when its expansion is extended
        for s, recorded in earlier:
            assert bits(s.coeffs) == recorded

    def test_one_expansion_per_exppoly_serves_every_degree(self):
        e = ExpPoly.from_terms([(0.7, (1.0, -2.0, 0.5)), (-1.3, (0.0, 3.0))])
        expansion = e._expansion
        returned = []
        for w in (12, 0, 7, 30, 12, 29, 7):
            s = expand_exppoly(e, w)
            assert bits(s.coeffs) == bits(oracle_expand(e, w))
            assert max(expansion) == max([w] + [r.truncation for r in returned])
            returned.append(s)
        assert e._expansion is expansion
        assert returned[4] is returned[0] and returned[6] is returned[2]
        # an equal ExpPoly owns an expansion of its own, with the same bits
        twin = ExpPoly.from_terms([(0.7, (1.0, -2.0, 0.5)), (-1.3, (0.0, 3.0))])
        assert twin == e and twin._expansion is not expansion
        assert bits(expand_exppoly(twin, 30).coeffs) == bits(returned[3].coeffs)


def field_repr(value):
    return f"{type(value).__name__}(" + ", ".join(
        f"{name}={getattr(value, name)!r}" for name in type(value)._fields
    ) + ")"


factor_tuples = st.lists(st.integers(min_value=0, max_value=6), max_size=6).map(tuple)


class TestSpecTables:
    @settings(max_examples=200, deadline=None)
    @given(factors=factor_tuples)
    def test_rests_are_the_per_call_sorted_pairs(self, factors):
        term = RhsTerm(ExpPoly.from_terms([(0.0, (1.0,))]), factors)
        assert _rests(term.factors) == tuple(
            (d, tuple(sorted(factors[:i] + factors[i + 1 :])))
            for i, d in enumerate(factors)
        )

    @settings(max_examples=100, deadline=None)
    @given(spec=specs)
    def test_origin_head_is_the_per_call_table(self, spec):
        head = [0.0] * spec.order
        for bc in spec.origin_conditions():
            head[bc.derivative_order] = bc.value / math.factorial(bc.derivative_order)
        assert bits(spec._origin_head) == bits(head)

    def test_equality_hash_and_repr_see_the_fields_alone(self):
        # the derived tables, and an expansion already extended, are not fields
        for n in range(1, 5):
            used, fresh = builtin(n), builtin(n)
            solve(with_settings(used, truncation=30, iterations=3))
            solve(used)
            pairs = [(used, fresh)]
            pairs += list(zip(used.terms, fresh.terms))
            pairs += [(a.coeff, b.coeff) for a, b in zip(used.terms, fresh.terms)]
            pairs += [(used.exact, fresh.exact)]
            for a, b in pairs:
                assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
                assert repr(a) == field_repr(a)
        e = ExpPoly((ExpTerm(0.5, (1.0, 2.0)),))
        expand_exppoly(e, 20)
        assert {e: 1}[ExpPoly((ExpTerm(0.5, (1.0, 2.0)),))] == 1

    def test_tangent_seeds_are_shared(self):
        spec = builtin(4)
        first = tangents(spec, iterate(spec, [0.0] * spec.unknown_count(), 0))
        again = tangents(spec, iterate(spec, [1.0] * spec.unknown_count(), 0))
        assert all(a is b for a, b in zip(first, again))


# -- the dense Newton solve --------------------------------------------------


def solve_outcome(solver, matrix, rhs):
    """The bits of ``solver``'s answer, or its SingularJacobianError message."""
    try:
        x = solver(matrix, rhs)
    except SingularJacobianError as exc:
        return "singular", str(exc)
    return "solved", [struct.pack("<d", v) for v in x]


dense_entries = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5, 1e-300, -1e-301,
         math.nan, math.inf, -math.inf]
    ),
    st.integers(min_value=-3, max_value=3).map(float),
    st.floats(min_value=-4.0, max_value=4.0),
)


def packed(values):
    return [struct.pack("<d", v) for v in values]


# values a product row or column can hold, overflow included
PRODUCT_SPECIALS = (0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan)


@st.composite
def product_operands(draw):
    """Two series at one degree W in 0..60.  The first is laid out in runs
    of 1-9 zero rows (either sign) or mostly nonzero rows, so one and two
    four-row blocks with 1-3 rows left over and lone rows all occur;
    -0.0, nan and +-inf can land in either operand.  The values come
    from a drawn seed, which keeps a long series cheap to draw."""
    n = draw(st.integers(min_value=1, max_value=61))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))

    def value():
        if rng.random() < 0.1:
            return rng.choice(PRODUCT_SPECIALS)
        return rng.uniform(-1.0, 1.0) * 2.0 ** rng.randint(-40, 40)

    f = []
    while len(f) < n:
        zero = rng.random() < 0.4
        f += [rng.choice((0.0, -0.0)) if zero else value() for _ in range(rng.randint(1, 9))]
    g = [value() for _ in range(n)]
    return _trusted(tuple(f[:n])), _trusted(tuple(g))


# finite coefficients, no two of equal magnitude, for the first operand;
# the second reads them backwards, twice over
PRODUCT_ROWS = (1.5, -0.7, 3.1, 0.3, -2.9, 1.1, -0.45, 2.3, 0.9)
PRODUCT_COLUMNS = PRODUCT_ROWS[::-1] * 2


def assert_one_row_bits(f, g=None):
    if g is None:
        g = PRODUCT_COLUMNS[: len(f)]
    f, g = _trusted(tuple(f)), _trusted(tuple(g))
    assert packed(mul(f, g).coeffs) == packed(reference_mul(f, g).coeffs)


class TestCauchyProduct:
    @settings(max_examples=200, deadline=None)
    @given(operands=product_operands())
    def test_same_bits_as_the_one_row_loop(self, operands):
        f, g = operands
        assert packed(mul(f, g).coeffs) == packed(reference_mul(f, g).coeffs)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_dense_first_operand(self, n):
        # at n = 4 and 8 a four-row block ends at the last row
        assert_one_row_bits(PRODUCT_ROWS[:n])

    @pytest.mark.parametrize("start", [0, 1, 2])
    @pytest.mark.parametrize("run", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_a_run_of_nonzero_rows(self, run, start):
        # a pass that took a row past the run would drop the row after
        # the zero row
        f = [0.0] * start + [*PRODUCT_ROWS[:run], -0.0, PRODUCT_ROWS[-1]]
        assert_one_row_bits(f)

    @pytest.mark.parametrize("special", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("row", range(4))
    def test_a_special_value_in_a_block_row(self, row, special):
        # a block at rows 1-4, then rows 5 and 6 alone
        f = [0.0, *PRODUCT_ROWS[:6]]
        f[1 + row] = special
        assert_one_row_bits(f)

    @pytest.mark.parametrize("special", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("column", range(3))
    def test_a_special_value_in_a_head_column(self, column, special):
        g = [*PRODUCT_COLUMNS[:7]]
        g[column] = special
        assert_one_row_bits([0.0, *PRODUCT_ROWS[:6]], g)

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_a_zero_row_ends_a_block(self, zero):
        # the zero row 3 would add 0 * inf = nan to out[3], and the
        # nonzero row 4 puts inf there
        f = (1.5, -0.7, 3.1, zero, 0.3)
        g = (math.inf, 1.1, -0.45, 2.3, 0.9)
        product = mul(_trusted(f), _trusted(g)).coeffs
        assert math.isfinite(product[3]) and product[4] == math.inf
        assert_one_row_bits(f, g)

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_zero_rows_are_skipped(self, zero):
        # the skipped row would add 0 * inf = nan
        product = mul(_trusted((zero, 1.0)), _trusted((math.inf, 1.0)))
        assert packed(product.coeffs) == packed((0.0, math.inf))

    def test_nan_rows_still_run(self):
        product = mul(_trusted((math.nan, 0.0, 0.0)), _trusted((0.0, 0.0, 0.0)))
        assert all(math.isnan(c) for c in product.coeffs)


@st.composite
def dense_systems(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    matrix = draw(
        st.lists(st.lists(dense_entries, min_size=n, max_size=n), min_size=n, max_size=n)
    )
    # a column of zeros, signed or below the pivot floor, is singular
    for col in draw(st.sets(st.integers(min_value=0, max_value=n - 1), max_size=2)):
        for row in matrix:
            row[col] = draw(st.sampled_from([0.0, -0.0, 1e-301]))
    rhs = draw(st.lists(dense_entries, min_size=n, max_size=n))
    return matrix, rhs


class TestDenseSolve:
    @settings(max_examples=300, deadline=None)
    @given(system=dense_systems())
    def test_same_bits_or_error_as_the_reference(self, system):
        matrix, rhs = system
        before = [[struct.pack("<d", v) for v in row] for row in matrix]
        expected = solve_outcome(reference_solve_dense, matrix, rhs)
        assert solve_outcome(_solve_dense, matrix, rhs) == expected
        assert [[struct.pack("<d", v) for v in row] for row in matrix] == before

    @pytest.mark.parametrize(
        "matrix",
        [
            [[2.0, 1.0], [-2.0, 3.0]],          # a tie keeps the upper row
            [[math.nan, 1.0], [5.0, 1.0]],      # a NaN pivot stays
            [[1.0, 1.0], [math.nan, 2.0]],      # a NaN below never wins
            [[0.0, 1.0], [math.nan, 2.0]],      # so this column is singular
            [[-0.0, 1.0], [0.0, 2.0]],
            [[math.inf, 1.0], [-math.inf, 2.0]],
            [[1.0, math.inf], [3.0, -math.inf]],
            [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]],
        ],
    )
    def test_pivot_edge_cases(self, matrix):
        rhs = [1.0] * len(matrix)
        expected = solve_outcome(reference_solve_dense, matrix, rhs)
        assert solve_outcome(_solve_dense, matrix, rhs) == expected


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


class TestValidationCount:
    """``perfbench/tracing.py`` counts validated constructions by patching
    ``Series.__post_init__`` on the class, and CI asserts the count is 0
    over traced solves; so a validated construction must run that method,
    looked up when it is called, and nothing on the trusted path may."""

    @pytest.fixture
    def validated(self, monkeypatch):
        calls = []
        original = Series.__post_init__

        def counted(obj):
            calls.append(obj)
            original(obj)

        monkeypatch.setattr(Series, "__post_init__", counted)
        return calls

    def test_each_validated_construction_counts_once(self, validated):
        direct = Series((1.0, 2.0))
        assert len(validated) == 1 and validated[0] is direct
        padded = make_series([1.0], 3)
        assert len(validated) == 2 and validated[1] is padded
        with pytest.raises(ValueError, match="finite"):
            Series((math.nan,))
        assert len(validated) == 3

    def test_the_ring_and_a_solve_validate_nothing(self, validated):
        f, g = Series((1.0, 2.0, 3.0)), Series((0.5, 0.0, -1.0))
        validated.clear()
        for result in (
            add(f, g),
            sub(f, g),
            mul(f, g),
            differentiate(f, 2),
            differentiate(f, 0),
            pad_to(f, 5),
            _trusted((1.0,)),
            expand_exppoly(ExpPoly.from_terms([(1.0, (1.0,))]), 6),
        ):
            assert isinstance(result, Series)
        spec = builtin(2)
        assert solve(spec).converged
        assert validated == []


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
