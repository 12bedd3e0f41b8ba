"""Newton shooting on the off-origin boundary conditions."""

import importlib.util
import math
import random
import sys
from pathlib import Path

import pytest

from vihpm import engine, solver
from vihpm.engine import iterate
from vihpm.problems import (
    BoundaryCondition,
    InvalidProblemError,
    ProblemSpec,
    RhsTerm,
    builtin,
    parse_problem,
    with_settings,
)
from vihpm.series import ExpPoly, evaluate, mul
from vihpm.solver import SingularJacobianError, fd_jacobian, jacobian, solve

from ring_helpers import bc_residuals, count_computations

# constants reported with the published benchmark solutions
PUBLISHED_CONSTANTS_1 = (
    -0.3333333170467781,
    -0.12500003614813987,
    -0.03333331303032349,
)
PUBLISHED_CONSTANTS_2 = (
    0.041666667529862395,
    0.0083333331197193119,
    0.001388890268167299,
)

# (builtin, W, k) -> Cauchy products, madds and Newton steps of one solve; a
# madd is one term f_i * g_j, and a change to any count is a change of work
SOLVE_WORK = {
    (1, 12, 1): (5, 65, 1),
    (2, 12, 1): (14, 641, 2),
    (3, 12, 1): (22, 307, 2),
    (4, 12, 1): (26, 389, 2),
    (1, 30, 3): (15, 570, 1),
    (2, 30, 3): (42, 22020, 2),
    (3, 30, 3): (66, 13987, 2),
    (4, 30, 3): (78, 18037, 2),
}

# (builtin, W, k) -> the madds of one solve by the engine function whose
# product does them: F's order-0 terms (_he_order), the chains of F's
# linearization (_linearization) and the tangent products (_apply); they
# add up to SOLVE_WORK's madds
SITE_MADDS = {
    (1, 12, 1): (26, 0, 39),
    (2, 12, 1): (477, 116, 48),
    (3, 12, 1): (153, 52, 102),
    (4, 12, 1): (179, 52, 158),
    (1, 30, 3): (228, 0, 342),
    (2, 30, 3): (12975, 3647, 5398),
    (3, 30, 3): (5295, 456, 8236),
    (4, 30, 3): (5523, 456, 12058),
}

# every 20th problem of perfbench/genproblems.generate(1), each solved once:
# products, madds, Newton steps and iterate calls summed over the 40
GENERATED_WORK = (1090, 51762, 29, 69)


def generated_slice(monkeypatch):
    """Every 20th problem of ``perfbench/genproblems.generate(1)``, parsed.

    The generator is loaded from its file, read only, so it needs no import
    path; its dataclass looks its module up in ``sys.modules`` while the
    module runs."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "genproblems.py"
    spec = importlib.util.spec_from_file_location("genproblems", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return [parse_problem(p.text) for p in module.generate(1)[::20]]


def solve_work_id(case):
    # builtin(n) is at the paper's setting (12, 1), named by n alone
    n, truncation, iterations = case
    if (truncation, iterations) == (12, 1):
        return str(n)
    return f"{n}-{truncation}-{iterations}"


def row_madds(f):
    """Madds of ``mul(f, g)``: f_i * g_j for j <= W - i, over the rows i that
    mul does not skip."""
    return sum(len(f.coeffs) - i for i, a in enumerate(f.coeffs) if a)


def eval_derivative_direct(coeffs, order, x):
    """Independent derivative evaluation via falling-factorial power sums."""
    total = 0.0
    for k in range(order, len(coeffs)):
        fall = 1.0
        for i in range(k, k - order, -1):
            fall *= i
        total += coeffs[k] * fall * x ** (k - order)
    return total


class TestBcResiduals:
    def test_first_builtin_at_published_constants(self):
        entries = bc_residuals(builtin(1), PUBLISHED_CONSTANTS_1)
        assert len(entries) == 3
        assert all(abs(v) <= 1e-10 for v in entries)

    def test_zero_unknowns_gives_empty_vector(self):
        spec = ProblemSpec(
            order=1,
            domain_end=1.0,
            terms=(RhsTerm(ExpPoly.from_terms([(0.0, (1.0,))]), (0,)),),
            bcs=(BoundaryCondition(0.0, 0, 1.0),),
        )
        assert bc_residuals(spec, ()) == ()

    def test_entries_follow_declaration_order_and_match_direct_eval(self):
        spec = builtin(1)
        solution = iterate(spec, (0.0, 0.0, 0.0))[-1]
        entries = bc_residuals(spec, (0.0, 0.0, 0.0))
        off = spec.off_origin_conditions()
        assert [bc.derivative_order for bc in off] == [0, 1, 2]
        for entry, bc in zip(entries, off):
            direct = (
                eval_derivative_direct(
                    solution.coeffs, bc.derivative_order, bc.point
                )
                - bc.value
            )
            assert entry == pytest.approx(direct, rel=1e-12, abs=1e-12)


class TestSolve:
    def test_first_builtin_constants(self):
        result = solve(builtin(1))
        assert result.converged
        assert result.newton_iterations <= 2
        assert result.bc_residual_norm <= 1e-12
        for got, ref in zip(result.constants, PUBLISHED_CONSTANTS_1):
            assert abs(got - ref) <= 1e-7

    def test_second_builtin_constants(self):
        result = solve(builtin(2))
        assert result.converged
        for got, ref in zip(result.constants, PUBLISHED_CONSTANTS_2):
            assert abs(got - ref) <= 1e-7

    def test_nonlinear_builtins_converge_quickly(self):
        for n in (2, 3, 4):
            result = solve(builtin(n))
            assert result.converged, n
            assert result.newton_iterations <= 10

    def test_solution_meets_every_boundary_condition(self):
        for n in range(1, 5):
            spec = builtin(n)
            result = solve(spec)
            for bc in spec.bcs:
                got = eval_derivative_direct(
                    result.solution.coeffs, bc.derivative_order, bc.point
                )
                assert abs(got - bc.value) <= 1e-10, (n, bc)

    def test_determinism(self):
        a = solve(builtin(3))
        b = solve(builtin(3))
        assert a.constants == b.constants
        assert a.solution.coeffs == b.solution.coeffs

    def test_zero_unknown_problem_converges_without_steps(self):
        spec = ProblemSpec(
            order=1,
            domain_end=1.0,
            terms=(RhsTerm(ExpPoly.from_terms([(0.0, (1.0,))]), (0,)),),
            bcs=(BoundaryCondition(0.0, 0, 1.0),),
        )
        result = solve(spec)
        assert result.converged
        assert result.newton_iterations == 0
        assert result.constants == ()
        # first-order approximation of the growth problem
        assert evaluate(result.solution, 1.0) == pytest.approx(2.0, rel=1e-15)

    def test_invalid_spec_rejected(self):
        # the spec rejects itself, so solve() never receives it
        with pytest.raises(InvalidProblemError) as caught:
            ProblemSpec(order=7, domain_end=1.0, terms=(), bcs=())
        assert caught.value.errors == ("expected 7 boundary conditions, found 0",)

    def test_singular_jacobian_raises(self):
        # both conditions constrain only the slope, leaving the constant
        # coefficient with a zero Jacobian column
        spec = ProblemSpec(
            order=2,
            domain_end=1.0,
            terms=(),
            bcs=(
                BoundaryCondition(0.5, 1, 1.0),
                BoundaryCondition(1.0, 1, 2.0),
            ),
        )
        with pytest.raises(SingularJacobianError):
            solve(spec)

    def test_non_convergence_reported_in_flags(self, monkeypatch):
        monkeypatch.setattr(solver, "NEWTON_MAX_ITERATIONS", 0)
        result = solve(builtin(1))
        assert not result.converged
        assert result.newton_iterations == 0
        assert result.bc_residual_norm > 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("truncation, iterations", [(12, 1), (30, 3), (12, 6)])
    def test_a_fresh_spec_expands_each_coefficient_once(self, n, truncation, iterations):
        spec = with_settings(builtin(n), truncation=truncation, iterations=iterations)
        logs = [count_computations(term.coeff) for term in spec.terms]
        result = solve(spec)
        assert result.converged and result.newton_iterations >= 1
        # once per term, up to W + (k-1)m, the ring of the last correction's F
        top = truncation + (iterations - 1) * spec.order
        assert logs == [[top]] * len(spec.terms)
        assert all(max(term.coeff._expansion) == top for term in spec.terms)

    def test_result_keeps_the_last_pass_iterates(self):
        spec = with_settings(builtin(3), truncation=30, iterations=3)
        result = solve(spec)
        assert result.iterates == iterate(spec, result.constants)
        assert result.iterates[-1] is result.solution


class TestJacobian:
    """The exact Jacobian against central differences as the oracle."""

    @pytest.mark.parametrize("n", range(1, 5))
    @pytest.mark.parametrize("settings", [(12, 1), (30, 3)], ids=["12-1", "30-3"])
    @pytest.mark.parametrize("at", ["zero", "random"])
    def test_matches_central_differences(self, n, settings, at):
        spec = with_settings(builtin(n), *settings)
        rng = random.Random(n)
        constants = [
            0.0 if at == "zero" else rng.uniform(-1.0, 1.0)
            for _ in range(spec.unknown_count())
        ]
        exact = jacobian(spec, iterate(spec, constants))
        oracle = fd_jacobian(spec, constants)
        assert len(exact) == len(oracle) == spec.unknown_count()
        for row_e, row_o in zip(exact, oracle):
            assert len(row_e) == len(row_o)
            for a, b in zip(row_e, row_o):
                assert abs(a - b) <= 1e-6 * max(abs(a), abs(b))

    def test_linear_problem_jacobian_is_constant(self):
        # builtin 1 is affine in its constants, so the tangents never read
        # the iterates: the Jacobian is the same bits anywhere
        spec = builtin(1)
        j0 = jacobian(spec, iterate(spec, (0.0, 0.0, 0.0)))
        j1 = jacobian(spec, iterate(spec, (0.5, -0.25, 1.0)))
        assert [[a.hex() for a in row] for row in j0] == [
            [b.hex() for b in row] for row in j1
        ]

    @pytest.mark.parametrize("n,products", [(1, 9), (2, 12), (3, 24), (4, 30)])
    def test_one_product_per_chain_factor_and_per_tangent_order(
        self, monkeypatch, n, products
    ):
        # per iterate but the last: one product per factor of each distinct
        # chain coeff * prod v^(d_l) of a term (the term's factors minus the
        # one that takes the tangent), plus one per tangent per distinct d
        spec = with_settings(builtin(n), 30, 3)
        chain_factors, orders = 0, set()
        for term in spec.terms:
            rests = {
                tuple(sorted(term.factors[:i] + term.factors[i + 1 :]))
                for i in range(len(term.factors))
            }
            chain_factors += sum(map(len, rests))
            orders.update(term.factors)
        per_iterate = chain_factors + spec.unknown_count() * len(orders)
        assert per_iterate * spec.iterations == products

        iterates = iterate(spec, [0.1] * spec.unknown_count())
        calls = []
        monkeypatch.setattr(engine, "mul", lambda f, g: calls.append(1) or mul(f, g))
        jacobian(spec, iterates)
        assert len(calls) == products

    @pytest.mark.parametrize("case", SOLVE_WORK, ids=solve_work_id)
    def test_solve_iterates_once_per_newton_step(self, monkeypatch, case):
        n, truncation, iterations = case
        products, madds, steps = SOLVE_WORK[case]
        calls = {"iterate": 0, "jacobian": 0, "fd_jacobian": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(solver, name, counted(name, getattr(solver, name)))
        rows = []

        def counted_mul(f, g):
            rows.append(row_madds(f))
            return mul(f, g)

        monkeypatch.setattr(engine, "mul", counted_mul)
        result = solve(with_settings(builtin(n), truncation, iterations))
        assert result.converged and result.newton_iterations == steps
        assert calls == {"iterate": steps + 1, "jacobian": steps, "fd_jacobian": 0}
        assert (len(rows), sum(rows)) == (products, madds)

    @pytest.mark.parametrize("case", SITE_MADDS, ids=solve_work_id)
    def test_madds_by_call_site(self, monkeypatch, case):
        n, truncation, iterations = case
        madds = dict.fromkeys(("_he_order", "_linearization", "_apply"), 0)

        def counted_mul(f, g):
            # booked to the nearest of the three on the call stack
            frame = sys._getframe(1)
            while frame.f_code.co_name not in madds:
                frame = frame.f_back
            madds[frame.f_code.co_name] += row_madds(f)
            return mul(f, g)

        monkeypatch.setattr(engine, "mul", counted_mul)
        solve(with_settings(builtin(n), truncation, iterations))
        assert tuple(madds.values()) == SITE_MADDS[case]
        assert sum(SITE_MADDS[case]) == SOLVE_WORK[case][1]

    def test_generated_slice_work(self, monkeypatch):
        specs = generated_slice(monkeypatch)
        assert len(specs) == 40
        rows = []
        calls = []

        def counted_mul(f, g):
            rows.append(row_madds(f))
            return mul(f, g)

        def counted_iterate(*args, **kwargs):
            calls.append(1)
            return iterate(*args, **kwargs)

        monkeypatch.setattr(engine, "mul", counted_mul)
        monkeypatch.setattr(solver, "iterate", counted_iterate)
        steps = 0
        for spec in specs:
            result = solve(spec)
            assert result.converged
            steps += result.newton_iterations
        assert (len(rows), sum(rows), steps, len(calls)) == GENERATED_WORK
