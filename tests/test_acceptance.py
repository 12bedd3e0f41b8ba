"""Acceptance gate: every shipped claim checked at its stated tolerance.

Each criterion prints exactly one PASS/FAIL line (collected again in the
terminal summary).  Bands around published benchmark values are interval
checks, factor-of-50 where the published digits are rounded.  Criteria that
cannot be met are asserted faithfully anyway and left red; the analysis
lives in the project notes, not in weakened tolerances.
"""

import math
import random

from scipy.integrate import quad

from vihpm.diagnostics import analyze_convergence
from vihpm.engine import (
    correct_once,
    he_coefficients,
    initial_approx,
    iterate,
)
from vihpm.kernel import CorrectionKernel
from vihpm.problems import builtin
from vihpm.reporting import error_table
from vihpm.series import (
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
from vihpm.solver import solve

from ring_helpers import scale

GRID = tuple(i / 10 for i in range(11))

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
# published absolute errors used as band centers
PUBLISHED_ERR_2_AT_03 = 4.56139e-9
PUBLISHED_ERR_3_AT_05 = 8.11431e-10
PUBLISHED_ERR_3_AT_06 = 9.55209e-10
PUBLISHED_ENDPOINT_4 = 4.90417e-8
# baselines quoted alongside the benchmarks, retained for reference only
BASELINE_MAX_ERR_1 = 2.1729e-9
BASELINE_MAX_ERR_2 = 7.7176e-7


def grid_errors(n):
    spec = builtin(n)
    result = solve(spec)
    table = error_table(spec, result, GRID)
    return result, {round(r.x, 1): r.abs_error for r in table.rows}, table


def in_factor_band(value, center, factor=50.0):
    return center / factor <= value <= center * factor


def test_criterion_1_first_benchmark(acceptance_record):
    result, errs, table = grid_errors(1)
    worst_dev = max(
        abs(g - r) for g, r in zip(result.constants, PUBLISHED_CONSTANTS_1)
    )
    constants_ok = worst_dev <= 1e-7
    max_err = table.max_abs_error
    error_ok = 5e-11 <= max_err <= 1e-9
    ok = constants_ok and error_ok
    acceptance_record(
        f"criterion 1: {'PASS' if ok else 'FAIL'} "
        f"constants worst dev {worst_dev:.2e} (tol 1e-7); "
        f"max grid error {max_err:.3e} in [5e-11, 1e-9]"
    )
    assert constants_ok, f"constants deviate by {worst_dev:.3e}"
    assert error_ok, f"max grid error {max_err:.3e} outside [5e-11, 1e-9]"


def test_criterion_2_second_benchmark(acceptance_record):
    result, errs, _ = grid_errors(2)
    worst_dev = max(
        abs(g - r) for g, r in zip(result.constants, PUBLISHED_CONSTANTS_2)
    )
    constants_ok = worst_dev <= 1e-7
    interior_max = max(errs[round(i / 10, 1)] for i in range(1, 10))
    interior_ok = interior_max <= 1e-8
    at_03 = errs[0.3]
    band_ok = in_factor_band(at_03, PUBLISHED_ERR_2_AT_03)
    ok = constants_ok and interior_ok and band_ok
    acceptance_record(
        f"criterion 2: {'PASS' if ok else 'FAIL'} "
        f"constants worst dev {worst_dev:.2e} (tol 1e-7); "
        f"interior max {interior_max:.3e} (tol 1e-8); "
        f"error at 0.3 = {at_03:.3e} vs factor-50 band around "
        f"{PUBLISHED_ERR_2_AT_03:.3e}"
        + ("" if band_ok else " [outside band]")
    )
    assert constants_ok
    assert interior_ok
    assert band_ok, (
        f"error at x=0.3 is {at_03:.3e}, outside "
        f"[{PUBLISHED_ERR_2_AT_03 / 50:.2e}, {PUBLISHED_ERR_2_AT_03 * 50:.2e}]"
    )


def test_criterion_3_third_benchmark(acceptance_record):
    result, errs, table = grid_errors(3)
    at_05, at_06 = errs[0.5], errs[0.6]
    rows_ok = in_factor_band(at_05, PUBLISHED_ERR_3_AT_05) and in_factor_band(
        at_06, PUBLISHED_ERR_3_AT_06
    )
    max_err = table.max_abs_error
    max_ok = max_err <= 5e-9
    ok = rows_ok and max_ok
    acceptance_record(
        f"criterion 3: {'PASS' if ok else 'FAIL'} "
        f"error(0.5) {at_05:.3e} vs {PUBLISHED_ERR_3_AT_05:.3e}, "
        f"error(0.6) {at_06:.3e} vs {PUBLISHED_ERR_3_AT_06:.3e} "
        f"(factor-50 bands); max grid error {max_err:.3e} (tol 5e-9)"
    )
    assert rows_ok
    assert max_ok


def test_criterion_4_three_point_benchmark(acceptance_record):
    result, errs, _ = grid_errors(4)
    inner_max = max(errs[round(i / 10, 1)] for i in range(10))
    inner_ok = inner_max <= 5e-8
    endpoint = abs(evaluate(result.solution, 1.0))
    endpoint_ok = 1e-9 <= endpoint <= 5e-7
    ok = inner_ok and endpoint_ok
    acceptance_record(
        f"criterion 4: {'PASS' if ok else 'FAIL'} "
        f"max error on [0, 0.9] = {inner_max:.3e} (tol 5e-8); "
        f"|S(1.0)| = {endpoint:.3e} vs band [1e-9, 5e-7] around "
        f"{PUBLISHED_ENDPOINT_4:.3e}"
        + ("" if endpoint_ok else " [outside band]")
    )
    assert inner_ok
    assert endpoint_ok, (
        f"|S(1.0)| = {endpoint:.3e} outside [1e-9, 5e-7]; the endpoint value "
        "is an enforced boundary condition, met to solver tolerance"
    )


def fd_derivative(g, t, order, h):
    total = 0.0
    for i in range(order + 1):
        w = math.comb(order, i) * (-1) ** i
        total += w * g(t + (order / 2 - i) * h)
    return total / h**order


def test_criterion_5_kernel_oracle(acceptance_record):
    rng = random.Random(42)
    kernel = CorrectionKernel(7, 12)
    worst_quad = 0.0
    for _ in range(20):
        f = make_series([rng.uniform(-2, 2) for _ in range(6)], 12)
        image = kernel.integrate(f)
        for x in (0.25, 0.5, 1.0):
            reference, _ = quad(
                lambda t: kernel.multiplier(t, x) * evaluate(f, t),
                0.0,
                x,
                epsabs=1e-16,
                epsrel=1e-12,
            )
            rel = abs(evaluate(image, x) - reference) / max(abs(reference), 1e-300)
            worst_quad = max(worst_quad, rel)
    quad_ok = worst_quad <= 1e-10

    x = 0.8
    lam = lambda t: kernel.multiplier(t, x)
    worst_stationarity = 0.0
    for j in range(6):
        h = 1e-5 if j <= 4 else 0.5
        worst_stationarity = max(worst_stationarity, abs(fd_derivative(lam, x, j, h)))
    worst_stationarity = max(
        worst_stationarity, abs(1.0 + fd_derivative(lam, x, 6, 0.5))
    )
    for t in (0.1, 0.45, 0.9):
        worst_stationarity = max(
            worst_stationarity, abs(fd_derivative(lam, t, 7, 0.5))
        )
    stationarity_ok = worst_stationarity <= 1e-10

    ok = quad_ok and stationarity_ok
    acceptance_record(
        f"criterion 5: {'PASS' if ok else 'FAIL'} "
        f"quadrature worst rel {worst_quad:.2e} (tol 1e-10); "
        f"stationarity worst defect {worst_stationarity:.2e} (tol 1e-10)"
    )
    assert quad_ok
    assert stationarity_ok


def test_criterion_6_structural_reproduction(acceptance_record):
    worst = 0.0
    for n, expression in (
        (1, lambda a: -107.0 / 39916800.0 - a / 1663200.0),
        (2, lambda a: -1.0 / 39916800.0 + a / 831600.0),
    ):
        spec = builtin(n)
        for a in (0.0, 0.37):
            v = initial_approx(spec, (a, 0.0, 0.0))
            correction = sub(
                correct_once(v, spec), pad_to(v, v.truncation + spec.order)
            )
            got = correction.coeffs[11]
            expect = expression(a)
            worst = max(worst, abs(got - expect) / abs(expect))
    ok = worst <= 1e-14
    acceptance_record(
        f"criterion 6: {'PASS' if ok else 'FAIL'} "
        f"degree-11 correction coefficients worst rel dev {worst:.2e} (tol 1e-14)"
    )
    assert ok


def test_criterion_7_property_suites(acceptance_record):
    # origin preservation, exact coefficient identity
    origin_ok = True
    for n in range(1, 5):
        spec = builtin(n)
        for v in iterate(spec, (0.05,) * spec.unknown_count(), 3):
            for bc in spec.origin_conditions():
                if evaluate_derivative(v, bc.derivative_order, 0.0) != bc.value:
                    origin_ok = False

    # kernel linearity and m-th-derivative left inverse at 1e-14 relative
    rng = random.Random(3)
    kernel = CorrectionKernel(7, 19)
    f = Series(tuple(rng.uniform(-1, 1) for _ in range(20)))
    g = Series(tuple(rng.uniform(-1, 1) for _ in range(20)))
    lin_lhs = kernel.integrate(add(scale(f, 1.7), scale(g, -0.4)))
    lin_rhs = add(scale(kernel.integrate(f), 1.7), scale(kernel.integrate(g), -0.4))
    kernel_ok = all(
        abs(a - b) <= 1e-14 * max(abs(a), abs(b), 1e-30)
        for a, b in zip(lin_lhs.coeffs, lin_rhs.coeffs)
    )
    back = differentiate(kernel.integrate(f), 7)
    kernel_ok = kernel_ok and all(
        abs(back.coeffs[j] + f.coeffs[j]) <= 1e-14 * abs(f.coeffs[j])
        for j in range(13)
    )

    # He expansion sums back to a direct application of the operator
    he_ok = True
    rng = random.Random(7)
    w = 12
    for n in range(1, 5):
        spec = builtin(n)
        for _ in range(3):
            u0 = make_series([rng.uniform(-1, 1) for _ in range(7)], w)
            u1 = make_series([rng.uniform(-1, 1) for _ in range(7)], w)
            zero = make_series([], w)
            expansion = he_coefficients(spec, (u0, u1, zero, zero))
            for p in (0.3, 1.0):
                combo = add(u0, scale(u1, p))
                direct = make_series([], w)
                for term in spec.terms:
                    acc = expand_exppoly(term.coeff, w)
                    for d in term.factors:
                        acc = mul(acc, differentiate(combo, d))
                    direct = add(direct, acc)
                for x in (0.3, 0.7, 1.0):
                    ref = evaluate(direct, x)
                    got = sum(evaluate(h, x) * p**k for k, h in enumerate(expansion))
                    if abs(got - ref) > 1e-12 * max(abs(ref), 1e-30):
                        he_ok = False

    # solution coefficients depend affinely on the constants
    spec = builtin(1)
    t1, t2 = (0.2, -0.3, 0.11), (-0.07, 0.5, -0.23)
    both = tuple(a + b for a, b in zip(t1, t2))
    s = lambda t: iterate(spec, t, 1)[-1]
    defect = sub(sub(s(both), s(t1)), sub(s(t2), s((0.0, 0.0, 0.0))))
    affine_ok = max(abs(c) for c in defect.coeffs) <= 1e-14

    # Newton step counts from zero constants
    newton_ok = solve(builtin(1)).newton_iterations <= 2
    for n in (2, 3, 4):
        result = solve(builtin(n))
        newton_ok = newton_ok and result.converged and result.newton_iterations <= 10

    ok = origin_ok and kernel_ok and he_ok and affine_ok and newton_ok
    acceptance_record(
        f"criterion 7: {'PASS' if ok else 'FAIL'} "
        f"origin exact {origin_ok}; kernel algebra {kernel_ok}; "
        f"He sum identity {he_ok}; affine dependence {affine_ok}; "
        f"newton counts {newton_ok}"
    )
    assert origin_ok
    assert kernel_ok
    assert he_ok
    assert affine_ok
    assert newton_ok


def test_criterion_8_convergence_diagnostic(acceptance_record):
    details = []
    ok = True
    for n in range(1, 5):
        result = solve(builtin(n))
        report = analyze_convergence(builtin(n), result.constants, depth=3)
        good = report.gamma_max < 1.0 and report.banach_bound_ok
        ok = ok and good
        details.append(f"b{n} gamma {report.gamma_max:.1e}")
    acceptance_record(
        f"criterion 8: {'PASS' if ok else 'FAIL'} "
        f"contraction and geometric bound on all four benchmarks "
        f"({'; '.join(details)})"
    )
    assert ok
