"""Contraction estimates from successive corrections."""

import math
import pickle

import pytest

from vihpm import diagnostics, engine
from vihpm.diagnostics import BOUND_SLACK, analyze_convergence, check_depth, default_grid
from vihpm.engine import NonFiniteIterateError, correct_once, initial_approx
from vihpm.problems import (
    BoundaryCondition,
    ProblemSpec,
    builtin,
    parse_problem,
    with_settings,
)
from vihpm.series import Series, evaluate, pad_to, sub
from vihpm.solver import solve

GRID = tuple(i / 10 for i in range(11))


class TestAnalyzeConvergence:
    def test_requires_depth_two(self):
        with pytest.raises(ValueError):
            analyze_convergence(builtin(1), (0.0, 0.0, 0.0), depth=1)

    def test_integral_float_depth_runs_as_an_int(self):
        spec, constants = builtin(1), (0.0, 0.0, 0.0)
        depth = check_depth(spec, 3.0)
        assert depth == 3 and type(depth) is int
        assert analyze_convergence(spec, constants, 3.0) == analyze_convergence(
            spec, constants, 3
        )

    def test_depth_up_to_the_degree_cap(self):
        # W = 13 and m = 7: depth 141 reaches degree 1,000, the cap, and 142
        # reaches 1,007
        spec = with_settings(builtin(1), truncation=13)
        assert check_depth(spec, 141) == 141
        message = "^depth 142 reaches series degree 1007, above 1000$"
        with pytest.raises(ValueError, match=message):
            check_depth(spec, 142)

    @pytest.mark.parametrize("depth", [2.5, None, "3"])
    def test_non_integral_depth_is_named(self, monkeypatch, depth):
        # a ValueError naming the field, before any correction runs
        monkeypatch.setattr(engine, "correct_once", lambda *args: pytest.fail("ran"))
        with pytest.raises(ValueError, match="^depth must be an integer, got "):
            check_depth(builtin(1), depth)
        with pytest.raises(ValueError, match="^depth must be an integer, got "):
            analyze_convergence(builtin(1), (0.0, 0.0, 0.0), depth)

    def test_first_builtin_contracts(self):
        result = solve(builtin(1))
        report = analyze_convergence(builtin(1), result.constants, depth=3, grid=GRID)
        assert report.gamma_max < 1.0
        assert report.contraction_ok
        assert report.banach_bound_ok
        assert len(report.deltas) == 3

    def test_all_builtins_contract(self):
        for n in range(1, 5):
            result = solve(builtin(n))
            report = analyze_convergence(builtin(n), result.constants, depth=3)
            assert report.contraction_ok, n
            assert report.banach_bound_ok, n

    def test_first_delta_matches_direct_correction_norm(self):
        constants = (0.0, 0.0, 0.0)
        spec = builtin(1)
        report = analyze_convergence(spec, constants, depth=2, grid=GRID)
        u0 = initial_approx(spec, constants)
        u1 = sub(correct_once(u0, spec), pad_to(u0, u0.truncation + spec.order))
        direct = max(abs(evaluate(u1, x)) for x in GRID)
        assert report.deltas[0] == pytest.approx(direct, rel=1e-9, abs=1e-18)

    def test_fixed_point_flagged_when_corrections_vanish(self):
        spec = ProblemSpec(
            order=2,
            domain_end=1.0,
            terms=(),
            bcs=(
                BoundaryCondition(0.0, 0, 1.0),
                BoundaryCondition(1.0, 0, 2.0),
            ),
        )
        result = solve(spec)
        report = analyze_convergence(spec, result.constants, depth=3)
        assert report.deltas == (0.0, 0.0, 0.0)
        assert report.gamma_estimates == ()
        assert report.gamma_max == 0.0
        assert report.contraction_ok
        assert report.banach_bound_ok
        assert report.fixed_point_reached

    def test_gamma_estimates_skip_zero_deltas(self):
        result = solve(builtin(1))
        report = analyze_convergence(builtin(1), result.constants, depth=3, grid=GRID)
        # the third correction is below double precision on this problem
        assert len(report.gamma_estimates) <= len(report.deltas) - 1
        assert all(g >= 0.0 for g in report.gamma_estimates)

    def test_each_iterate_evaluated_once_per_grid_point(self, monkeypatch):
        calls = []

        def counting_evaluate(f, x):
            calls.append(x)
            return evaluate(f, x)

        monkeypatch.setattr(diagnostics, "evaluate", counting_evaluate)
        depth = 4
        analyze_convergence(builtin(2), (0.0, 0.0, 0.0), depth=depth, grid=GRID)
        assert len(calls) == (depth + 1) * len(GRID)

    @pytest.mark.parametrize(
        "grid, message",
        [
            ((), "grid must be non-empty"),
            ((0.0, math.nan), "each of grid must be finite, got nan"),
            ((0.0, math.inf), "each of grid must be finite, got inf"),
            ((-math.inf, 0.0), "each of grid must be finite, got -inf"),
        ],
        ids=["empty", "nan", "inf", "-inf"],
    )
    def test_bad_grid_rejected_before_any_correction(self, monkeypatch, grid, message):
        # a ValueError (exit 1), not a solver failure, and before any iterate
        monkeypatch.setattr(diagnostics, "iterate", lambda *args: pytest.fail("ran"))
        with pytest.raises(ValueError, match=f"^{message}$"):
            analyze_convergence(builtin(1), (0.0, 0.0, 0.0), depth=2, grid=grid)

    @pytest.mark.parametrize(
        "field,constants,grid",
        [
            ("grid", (0.0, 0.0, 0.0), (0.0, None)),
            ("grid", (0.0, 0.0, 0.0), ("a", 1.0)),
            ("grid", (0.0, 0.0, 0.0), 1.0),
            ("constants", (None, 0, 0), GRID),
            ("constants", ("a", 0, 0), GRID),
        ],
        ids=["grid-none", "grid-text", "grid-bare", "constants-none", "constants-text"],
    )
    def test_non_numeric_field_is_named(self, monkeypatch, field, constants, grid):
        # a ValueError naming the field, before any correction runs
        monkeypatch.setattr(engine, "correct_once", lambda *args: pytest.fail("ran"))
        with pytest.raises(ValueError, match=f"^{field} must be a sequence of numbers, got "):
            analyze_convergence(builtin(1), constants, depth=2, grid=grid)

    def test_default_grid_matches_table_spacing(self):
        grid = default_grid(builtin(1))
        assert grid == GRID


def report_bits(report):
    """Each field of a report, with every float as its exact bits."""
    def bits(value):
        if isinstance(value, float):
            return value.hex()
        if isinstance(value, tuple):
            return tuple(bits(v) for v in value)
        return value

    return {name: bits(getattr(report, name)) for name in type(report)._fields}


# the gamma_max**j of this problem's bound overflows a float
OVERFLOWING_BOUND = """order 2
domain 0 1
truncation 4
iterations 1
term 0.0 1e160 ; 1
term 0.0 1e-300
bc 0 0 1
bc 0 1 0
"""


class TestSolveIterates:
    @pytest.mark.parametrize(
        "truncation, iterations, depth",
        [(30, 6, 4), (30, 3, 3), (30, 3, 2), (12, 1, 6), (30, 3, 4)],
    )
    def test_report_from_solve_iterates_has_the_bits_of_one_from_constants(
        self, truncation, iterations, depth
    ):
        settings = {"truncation": truncation, "iterations": iterations}
        spec = with_settings(builtin(2), **settings)
        result = solve(spec)
        assert len(result.iterates) == iterations + 1
        assert result.iterates[-1] is result.solution
        reused = analyze_convergence(spec, result.constants, depth, GRID, result.iterates)
        # a fresh spec, so no expansion or iterate is shared with the solve
        alone = analyze_convergence(
            with_settings(builtin(2), **settings), result.constants, depth, GRID
        )
        assert report_bits(reused) == report_bits(alone)
        assert len(reused.deltas) == depth

    def test_a_copied_result_recomputes_the_iterates(self):
        spec = with_settings(builtin(2), truncation=30, iterations=3)
        result = solve(spec)
        twin = pickle.loads(pickle.dumps(result))
        assert twin == result and twin.iterates is None
        assert "iterates" not in repr(result)
        want = analyze_convergence(spec, result.constants, 4, GRID, result.iterates)
        got = analyze_convergence(spec, twin.constants, 4, GRID, twin.iterates)
        assert report_bits(got) == report_bits(want)

    def test_an_overflowing_bound_power_counts_as_infinite(self):
        spec = parse_problem(OVERFLOWING_BOUND)
        result = solve(spec)
        report = analyze_convergence(spec, result.constants, 4, iterates=result.iterates)
        # delta_0 == 0, so an infinite geometric sum must not make a nan bound
        assert report.deltas[:2] == (0.0, 0.0)
        assert report.gamma_max == 2e159
        assert not report.contraction_ok
        assert not report.banach_bound_ok
        assert report.fixed_point_reached

    @pytest.mark.parametrize(
        "constants, message",
        [
            (["x"], r"constants must be a sequence of numbers, got \['x'\]"),
            ([1e9, 2.0], "expected 3 free constants, got 2"),
        ],
        ids=["non-numeric", "wrong-count"],
    )
    def test_constants_are_checked_with_iterates_given(self, constants, message):
        # the iterates are reused, but the constants they stand for are
        # still the ones initial_approx accepts
        spec = builtin(1)
        iterates = solve(spec).iterates
        with pytest.raises(ValueError, match=message):
            analyze_convergence(spec, constants, 3, None, iterates)

    @staticmethod
    def report_on_constant_iterates(values):
        iterates = tuple(Series((v,)) for v in values)
        depth = len(values) - 1
        return analyze_convergence(builtin(1), (0.0, 0.0, 0.0), depth, GRID, iterates)

    def test_a_zero_first_gap_bounds_every_gap_by_zero(self):
        # gaps 0, 0, 1e-200, 1e200: gamma_max = 1e400 = inf, and an infinite
        # geometric sum times delta_0 = 0 must not pass the nonzero gaps
        report = self.report_on_constant_iterates((0.0, 0.0, 0.0, 1e-200, 1e200))
        assert report.deltas == (0.0, 0.0, 1e-200, 1e200)
        assert report.gamma_max == math.inf
        assert not report.contraction_ok
        assert not report.banach_bound_ok

    def test_a_gap_within_the_slack_passes_the_bound(self):
        # gaps 1 and 1 + BOUND_SLACK / 2: the second exceeds its bound
        # delta_0 * gamma_max**0 = 1, but not that bound times 1 + BOUND_SLACK
        report = self.report_on_constant_iterates((0.0, 1.0, 2.0 + BOUND_SLACK / 2))
        assert report.banach_bound_ok

    def test_an_overflowing_power_is_infinite_not_an_error(self):
        # gaps 1, 1e200, 1e200, 1e200: gamma_max = 1e200, whose square overflows
        report = self.report_on_constant_iterates((0.0, 1.0, 1e200, 2e200, 3e200))
        assert report.gamma_max == 1e200
        assert not report.banach_bound_ok
        # but a gap between two iterates that overflows raises
        with pytest.raises(NonFiniteIterateError, match="gap between two iterates"):
            self.report_on_constant_iterates((0.0, 1e308, -1e308))


class TestGeometricSum:
    def test_added_left_to_right_on_every_python(self):
        # 1 + 0.3 + 0.3**2: sum() of floats, compensated since 3.12, gives
        # 0x1.63d70a3d70a3dp+0 there
        assert diagnostics._geometric_sum(0.3, 0, 3).hex() == "0x1.63d70a3d70a3ep+0"
        # 1 + 0.7 + ... + 0.7**4 added from the largest power down gives
        # 0x1.62f4f0d844d00p+1
        assert diagnostics._geometric_sum(0.7, 0, 5).hex() == "0x1.62f4f0d844d01p+1"
