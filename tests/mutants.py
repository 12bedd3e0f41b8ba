"""Rerun the recorded mutation checks: each mutant must meet its expected fate.

Usage: python tests/mutants.py

Each entry names a file under ``src/``, an exact piece of its text, the text
that replaces it, the tests to run and the expected outcome.  For every
entry the script copies the repository without ``.git`` into a temporary
directory, applies the edit to its ``src/`` and runs the selection there
with pytest.  A mutant expected "killed" must make some selected test
fail.  One expected "equivalent" must survive, every selected test
passing, because the edit cannot change a result, for the reason the entry
records.  Each selection first runs on the unedited copy and must pass
there, so a kill is the mutant's doing.  The script prints one line per
entry and exits non-zero if the text to replace is not found exactly once,
or if any mutant meets another fate than the one expected.  The file name
does not match ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]
    expected: str
    reason: str = ""


PRODUCT_TESTS = ("tests/test_trusted_ring.py::TestCauchyProduct",)
VALUE_TESTS = ("tests/test_values.py",)
EXPANSION_TESTS = (
    "tests/test_series.py",
    "tests/test_trusted_ring.py",
    "tests/test_engine.py",
    "tests/test_problems.py",
)
PICARD_TESTS = (
    "tests/test_trusted_ring.py::TestPicardStep",
    "tests/test_trusted_ring.py::TestEveryLength::test_picard_step",
    "tests/test_engine.py",
)
DERIVATIVE_TESTS = (
    "tests/test_series.py",
    "tests/test_trusted_ring.py::TestDerivativeWithoutCopies",
    "tests/test_trusted_ring.py::TestEveryLength::test_derivative_and_its_value",
)
GENERATED_TESTS = (
    "tests/test_trusted_ring.py::TestEveryLength",
    "tests/test_trusted_ring.py::TestCauchyProduct::test_dense_first_operand",
)
DENSE_SOLVE_TESTS = ("tests/test_trusted_ring.py::TestDenseSolve",)
RING_CHECK_TESTS = ("tests/test_series.py::TestArithmetic",)
GEOMETRIC_TESTS = ("tests/test_diagnostics.py",)
FIELD_TESTS = ("tests/test_series.py", "tests/test_kernel.py", "tests/test_problems.py")
HORNER_TESTS = (
    "tests/test_series.py",
    "tests/test_problems.py",
    "tests/test_reporting.py",
)
PICK_TESTS = ("tests/test_engine.py::TestPicks",)
PARSE_TESTS = ("tests/test_problems.py::TestParse",)
LINEARIZATION_TESTS = (
    "tests/test_trusted_ring.py::TestSpecTables",
    "tests/test_engine.py::TestLinearization",
)
FROZEN_BITS_TESTS = ("tests/test_trusted_ring.py",)
DEPTH_TESTS = ("tests/test_diagnostics.py::TestAnalyzeConvergence",)
CAP_TESTS = ("tests/test_problems.py::TestValidate::test_series_degree_cap",)
COLLECTED_TESTS = ("tests/test_values.py::test_collected_faults_raise_one_invalid_problem_error",)
COUNT_TESTS = ("tests/test_series.py::TestInputTypes",)
FINITE_TESTS = ("tests/test_values.py::test_a_non_finite_number_is_one_fault_naming_its_field",)
GRID_TESTS = (
    "tests/test_cli.py::TestGrid",
    "tests/test_cli.py::TestSolveCommand::test_grid_step_ends_at_the_domain_end",
)
TABLE_TESTS = ("tests/test_reporting.py::TestErrorTable",)
BOUNDARY_RESIDUAL_TESTS = (
    "tests/test_solver.py::TestSolve::test_non_finite_boundary_residual_raises",
)
ARGUMENT_TESTS = ("tests/test_cli.py::TestArguments",)
DEFECT_TESTS = (
    "tests/test_cli.py::TestErrorPaths::test_value_error_inside_solve_is_not_bad_input",
)
PATH_FAULT_TESTS = (
    "tests/test_cli.py::TestErrorPaths::test_file_that_is_not_utf8",
    "tests/test_cli.py::TestErrorPaths::test_path_with_a_nul_byte",
)
JACOBIAN_TESTS = ("tests/test_solver.py::TestJacobian",)
BC_VALUE_TESTS = ("tests/test_solver.py",)

MUTANTS = (
    Mutant(
        "mul: a four-row block skips one row too few",
        "vihpm/series.py",
        "            next(rows)\n            g0 = gc[0]\n",
        "            g0 = gc[0]\n",
        PRODUCT_TESTS,
        "killed",
    ),
    Mutant(
        "mul: the four-term sum regrouped",
        "vihpm/series.py",
        "out[k] = out[k] + a * g3 + b * g2 + c * g1 + d * g0",
        "out[k] = out[k] + (a * g3 + b * g2 + c * g1 + d * g0)",
        PRODUCT_TESTS,
        "killed",
    ),
    Mutant(
        "mul: carried g values shifted in the wrong order",
        "vihpm/series.py",
        "g0 = g1\n                g1 = g2\n                g2 = g3\n",
        "g2 = g3\n                g1 = g2\n                g0 = g1\n",
        PRODUCT_TESTS,
        "killed",
    ),
    Mutant(
        "mul: the block test written with or",
        "vihpm/series.py",
        "if i + 3 < n and fc[i + 1] and fc[i + 2] and fc[i + 3]:",
        "if i + 3 < n and fc[i + 1] and (fc[i + 2] or fc[i + 3]):",
        PRODUCT_TESTS,
        "killed",
    ),
    Mutant(
        "mul: a one-row pass stops a degree short",
        "vihpm/series.py",
        "for j in range(n - i):",
        "for j in range(n - i - 1):",
        PRODUCT_TESTS,
        "killed",
    ),
    Mutant(
        "_kernel: an output not started from +0.0",
        "vihpm/series.py",
        '"0.0 + " + "\\n',
        '"\\n',
        PRODUCT_TESTS,
        "killed",
    ),
    Mutant(
        "_kernel: the terms taken in descending row order",
        "vihpm/series.py",
        "for i in range(k + 1)]",
        "for i in reversed(range(k + 1))]",
        PRODUCT_TESTS,
        "killed",
    ),
    Mutant(
        "_kernel: its result kept without the finiteness check",
        "vihpm/series.py",
        "    ], _FINITE_OR_LOOP)\n",
        "    ])\n",
        PRODUCT_TESTS,
        "killed",
    ),
    Mutant(
        "_product: a first operand with as many zero as nonzero rows takes the kernel",
        "vihpm/series.py",
        "2 * zeros < n:",
        "2 * zeros <= n:",
        PRODUCT_TESTS,
        "killed",
    ),
    Mutant(
        "_line_kernel: row 1's term added before row 0's",
        "vihpm/series.py",
        'f"0.0 + f0 * g{k} + f1 * g{k - 1}"',
        'f"0.0 + f1 * g{k - 1} + f0 * g{k}"',
        PRODUCT_TESTS,
        "equivalent",
        "after the +0.0 each output adds two terms, and a float sum of two "
        "terms does not depend on their order; a zero term of either sign "
        "added to a +0.0 leaves +0.0 either way, and a NaN result is "
        "dropped for the loop",
    ),
    Mutant(
        "_line_kernel: an output not started from +0.0",
        "vihpm/series.py",
        'f"0.0 + f0 * g{k} + f1 * g{k - 1}"',
        'f"f0 * g{k} + f1 * g{k - 1}"',
        PRODUCT_TESTS,
        "killed",
    ),
    Mutant(
        "_product: the two-row test admits a nonzero row 2",
        "vihpm/series.py",
        "- (fc[1] == 0.0) == n - 2:",
        "- (fc[1] == 0.0) >= n - 3:",
        PRODUCT_TESTS,
        "killed",
    ),
    Mutant(
        "_line_kernel: its result kept without the finiteness check",
        "vihpm/series.py",
        "        _FINITE_OR_LOOP,\n    )\n",
        "    )\n",
        PRODUCT_TESTS,
        "killed",
    ),
    Mutant(
        "product code: both kinds return their result without its check",
        "vihpm/series.py",
        '_FINITE_OR_LOOP = "out if isfinite(sum(out)) else loop(f, g)"',
        '_FINITE_OR_LOOP = "out"',
        PRODUCT_TESTS,
        "killed",
    ),
    Mutant(
        "KERNEL_CAP: one ring size too many gets a kernel",
        "vihpm/series.py",
        "KERNEL_CAP = 64\n",
        "KERNEL_CAP = 65\n",
        PRODUCT_TESTS,
        "killed",
    ),
    Mutant(
        "_Generated.__missing__: the largest length left out of the generated code",
        "vihpm/series.py",
        "        if n > KERNEL_CAP:\n",
        "        if n >= KERNEL_CAP:\n",
        GENERATED_TESTS,
        "killed",
    ),
    Mutant(
        "_Generated.__missing__: the loop kept for a length above the cap",
        "vihpm/series.py",
        "            return self.loop\n",
        "            return self.setdefault(n, self.loop)\n",
        GENERATED_TESTS,
        "killed",
    ),
    Mutant(
        "_add_kernel: declared with the derivative's loop, map(mul)",
        "vihpm/series.py",
        "@partial(_Generated, loop=lambda f, g: tuple([*map(_fadd, f, g)]))",
        "@partial(_Generated, loop=lambda f, g: tuple(map(_fmul, f, g)))",
        GENERATED_TESTS,
        "killed",
    ),
    Mutant(
        "_horner_kernel: the terms taken from degree 0 up",
        "vihpm/series.py",
        "for k in reversed(range(n))]",
        "for k in range(n)]",
        DERIVATIVE_TESTS,
        "killed",
    ),
    Mutant(
        "differentiate: the generated code reads the falling factorials one place off",
        "vihpm/series.py",
        "[len(coeffs)](coeffs, falls)",
        "[len(coeffs)](coeffs, (1.0, *falls[:-1]))",
        DERIVATIVE_TESTS,
        "killed",
    ),
    Mutant(
        "_picard_kernel: the integral negated as -(f_j * w_j), which is -0.0 at a zero",
        "vihpm/kernel.py",
        'f"0.0 - c{i} * w{i}"',
        'f"-(c{i} * w{i})"',
        PICARD_TESTS,
        "killed",
    ),
    Mutant(
        "_picard_kernel: the loop above the cap negates as -(f_j * w_j), -0.0 at a zero",
        "vihpm/kernel.py",
        "0.0 - a * b for a, b",
        "-(a * b) for a, b",
        PICARD_TESTS,
        "killed",
    ),
    Mutant(
        "_picard_kernel: the loop above the cap adds the integral instead of subtracting it",
        "vihpm/kernel.py",
        "0.0 - a * b for a, b",
        "a * b for a, b",
        PICARD_TESTS,
        "killed",
    ),
    Mutant(
        "_horner_kernel: the loop above the cap evaluates c_k without the factorials w_k",
        "vihpm/series.py",
        "_horner(tuple(map(_fmul, c, w)), x)",
        "_horner(c, x)",
        DERIVATIVE_TESTS,
        "killed",
    ),
    Mutant(
        "mul: operands of two rings multiplied without the ring check",
        "vihpm/series.py",
        "    _check_same_ring(f, g)\n    return _trusted(_product(",
        "    return _trusted(_product(",
        RING_CHECK_TESTS,
        "killed",
    ),
    Mutant(
        "_solve_dense: a tie moves the pivot to the lower row",
        "vihpm/solver.py",
        "            if entry > size:\n",
        "            if entry >= size:\n",
        DENSE_SOLVE_TESTS,
        "killed",
    ),
    Mutant(
        "_solve_dense: a NaN pivot candidate is replaced",
        "vihpm/solver.py",
        "            if entry > size:\n",
        "            if not entry <= size:\n",
        DENSE_SOLVE_TESTS,
        "killed",
    ),
    Mutant(
        "_geometric_sum: the powers added from the largest exponent down",
        "vihpm/diagnostics.py",
        "for j in range(first, stop):",
        "for j in reversed(range(first, stop)):",
        GEOMETRIC_TESTS,
        "killed",
    ),
    Mutant(
        "_integer: a non-integral number is truncated, not rejected",
        "vihpm/series.py",
        "        if int(value) == value:\n            return int(value)\n",
        "        return int(value)\n",
        FIELD_TESTS,
        "killed",
    ),
    Mutant(
        "_count: a negative count is not rejected",
        "vihpm/series.py",
        "    if isinstance(count, int) and count < 0:\n"
        "        errors.append(f\"{name} must be non-negative, got {count}\")\n",
        "",
        COUNT_TESTS,
        "killed",
    ),
    Mutant(
        "_number: without its finiteness check",
        "vihpm/series.py",
        "    if not math.isfinite(number):\n"
        "        errors.append(f\"{name} must be finite, got {number!r}\")\n",
        "",
        FINITE_TESTS,
        "killed",
    ),
    Mutant(
        "_numbers: without its finiteness check",
        "vihpm/series.py",
        "    if bad is not None:\n"
        "        errors.append(f\"each of {name} must be finite, got {bad!r}\")\n",
        "",
        FINITE_TESTS,
        "killed",
    ),
    Mutant(
        "_entries: the class of each entry is not checked",
        "vihpm/series.py",
        "    for entry in entries:\n        if not isinstance(entry, kind):\n",
        "    for entry in ():\n        if not isinstance(entry, kind):\n",
        FIELD_TESTS,
        "killed",
    ),
    Mutant(
        "_horner: the coefficients taken from the lowest degree up",
        "vihpm/series.py",
        "    for c in reversed(coeffs):\n",
        "    for c in coeffs:\n",
        HORNER_TESTS,
        "killed",
    ),
    Mutant(
        "_rests: the other factors' orders left unsorted",
        "vihpm/engine.py",
        "(d, tuple(sorted(factors[:i] + factors[i + 1 :])))",
        "(d, factors[:i] + factors[i + 1 :])",
        LINEARIZATION_TESTS,
        "killed",
    ),
    Mutant(
        "_apply: the weight kept as the first operand of every tangent product",
        "vihpm/engine.py",
        "_sparse_first(weight, _derivative(dv, d), zeros)",
        "_product(weight, _derivative(dv, d), zeros)",
        LINEARIZATION_TESTS,
        "killed",
    ),
    Mutant(
        "_sparse_first: the weight's zero count used for the tangent's derivative",
        "vihpm/engine.py",
        "        return _product(g, f, g_zeros)\n",
        "        return _product(g, f, f_zeros)\n",
        LINEARIZATION_TESTS,
        "killed",
    ),
    Mutant(
        "_picks: the bars drawn from one slot too many",
        "vihpm/engine.py",
        "for bars in combinations(range(k + r - 1), r - 1)",
        "for bars in combinations(range(k + r), r - 1)",
        PICK_TESTS,
        "killed",
    ),
    Mutant(
        "parse_problem: the truncation and iterations lines not handed on",
        "vihpm/problems.py",
        "        **settings,\n",
        "        order=settings[\"order\"],\n",
        PARSE_TESTS,
        "killed",
    ),
    Mutant(
        "_LINES: a bc line's derivative order read as a number",
        "vihpm/problems.py",
        '"bc": ((float, int, float),',
        '"bc": ((float, float, float),',
        PARSE_TESTS,
        "killed",
    ),
    Mutant(
        "builtin 4: the last digit of u(1/2) = sqrt(e)/2 changed",
        "vihpm/problems.py",
        "bc 0.5 0 0.8243606353500641",
        "bc 0.5 0 0.8243606353500642",
        FROZEN_BITS_TESTS,
        "killed",
    ),
    Mutant(
        "_within_degree_cap: the top degree of check_depth taken as W + depth / m",
        "vihpm/problems.py",
        "spec.truncation + count * spec.order",
        "spec.truncation + count / spec.order",
        DEPTH_TESTS,
        "killed",
    ),
    Mutant(
        "validate: the series-degree cap not checked",
        "vihpm/problems.py",
        '    _within_degree_cap("iterations", spec.iterations, spec, errors)\n',
        "",
        CAP_TESTS,
        "killed",
    ),
    Mutant(
        "_raise: collected faults raised as a plain ValueError",
        "vihpm/series.py",
        "        raise InvalidProblemError(faults)\n",
        '        raise ValueError("; ".join(faults))\n',
        COLLECTED_TESTS,
        "killed",
    ),
    Mutant(
        "analyze_convergence: the Banach bound's slack subtracted",
        "vihpm/diagnostics.py",
        "(1.0 + BOUND_SLACK)",
        "(1.0 - BOUND_SLACK)",
        GEOMETRIC_TESTS,
        "killed",
    ),
    Mutant(
        "check_depth: a non-integral depth is not converted or rejected",
        "vihpm/diagnostics.py",
        "    depth = _checked(_integer, \"depth\", depth)\n",
        "",
        DEPTH_TESTS,
        "killed",
    ),
    Mutant(
        "_Value.__init__: the entry count is not compared",
        "vihpm/series.py",
        "if len(kwargs) < count or kwargs.keys()",
        "if kwargs.keys()",
        VALUE_TESTS,
        "killed",
    ),
    Mutant(
        "solve: only the sup-norm of the boundary residuals checked for finiteness",
        "vihpm/solver.py",
        "        if not all(map(math.isfinite, r)):\n",
        "        if not math.isfinite(max(map(abs, r), default=0.0)):\n",
        BOUNDARY_RESIDUAL_TESTS,
        "killed",
    ),
    Mutant(
        "jacobian: the rows returned as columns, the layout transposed",
        "vihpm/solver.py",
        "    return _bc_values(_tangents(spec, iterates), spec)\n",
        "    return [list(row) for row in zip(*_bc_values(_tangents(spec, iterates), spec))]\n",
        JACOBIAN_TESTS,
        "killed",
    ),
    Mutant(
        "_bc_values: every condition applied at the domain end, not its point",
        "vihpm/solver.py",
        "_derivative_values(coeffs, bc.derivative_order, bc.point)",
        "_derivative_values(coeffs, bc.derivative_order, spec.domain_end)",
        BC_VALUE_TESTS,
        "killed",
    ),
    Mutant(
        "_bc_values: every condition applied as a value, not its derivative order",
        "vihpm/solver.py",
        "_derivative_values(coeffs, bc.derivative_order, bc.point)",
        "_derivative_values(coeffs, 0, bc.point)",
        BC_VALUE_TESTS,
        "killed",
    ),
    Mutant(
        "_bc_values: the first condition's falling factorials (its derivative "
        "order) used for every condition",
        "vihpm/solver.py",
        "_derivative_values(coeffs, bc.derivative_order, bc.point)",
        "_derivative_values(coeffs, spec.off_origin_conditions()[0].derivative_order, bc.point)",
        BC_VALUE_TESTS,
        "killed",
    ),
    Mutant(
        "main: a bad argument exits through argparse",
        "vihpm/cli.py",
        "        raise InvalidProblemError([message])\n",
        "        super().error(message)\n",
        ARGUMENT_TESTS,
        "killed",
    ),
    Mutant(
        "main: catches ValueError again, so a defect exits 1 as bad input",
        "vihpm/cli.py",
        "    except (OSError, InvalidProblemError) as exc:",
        "    except (OSError, ValueError) as exc:",
        DEFECT_TESTS,
        "killed",
    ),
    Mutant(
        "_input_fault: a NUL in a path or a file that is not UTF-8 escapes main",
        "vihpm/cli.py",
        "        raise InvalidProblemError([str(exc)]) from None\n",
        "        raise\n",
        PATH_FAULT_TESTS,
        "killed",
    ),
    Mutant(
        "parse_problem: a line's own format fault is named with its line twice",
        "vihpm/problems.py",
        "        except ProblemFormatError:\n            raise\n",
        "",
        PARSE_TESTS,
        "killed",
    ),
    Mutant(
        "_make_grid: a dividing step's last point is i * end / n, not end",
        "vihpm/cli.py",
        "(*[i * end / n for i in range(n)], end)",
        "tuple([i * end / n for i in range(n + 1)])",
        GRID_TESTS,
        "killed",
    ),
    Mutant(
        "_make_grid: a step giving exactly MAX_GRID_POINTS points rejected",
        "vihpm/cli.py",
        "if end / step > MAX_GRID_POINTS - 1:",
        "if end / step >= MAX_GRID_POINTS - 1:",
        GRID_TESTS,
        "killed",
    ),
    Mutant(
        "error_table: a reference that overflows raises OverflowError",
        "vihpm/reporting.py",
        "            try:\n"
        "                exact = spec.exact.evaluate(x)\n"
        "            except OverflowError:\n"
        "                exact = math.inf\n",
        "            exact = spec.exact.evaluate(x)\n",
        TABLE_TESTS,
        "killed",
    ),
    Mutant(
        "expand_exppoly: the cutoff at the first zero weight drops the last nonzero one",
        "vihpm/series.py",
        "                if weight == 0.0:\n                    break\n",
        "                if weight == 0.0:\n                    weights.pop()\n                    break\n",
        EXPANSION_TESTS,
        "killed",
    ),
    Mutant(
        "expand_exppoly: a zero p_j is not skipped",
        "vihpm/series.py",
        "                if p == 0.0:\n                    continue\n",
        "",
        EXPANSION_TESTS,
        "equivalent",
        "a zero p_j adds +0.0 or -0.0 to an accumulator that is never -0.0, "
        "so the sum changes only where a weight has overflowed, and such a "
        "run is rejected as non-finite either way",
    ),
    Mutant(
        "expand_exppoly: a degree equal to the top one held taken as a slice",
        "vihpm/series.py",
        "    if truncation < top:\n",
        "    if truncation <= top:\n",
        EXPANSION_TESTS,
        "equivalent",
        "a degree equal to the top one held is a table hit, returned before "
        "the comparison, so the comparison never sees the two equal",
    ),
)


SKIP = shutil.ignore_patterns(
    ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench_work"
)


def _run(tests: tuple[str, ...], mutant: Mutant | None) -> int:
    """Exit status of pytest on ``tests`` in a fresh copy, ``mutant`` applied."""
    with tempfile.TemporaryDirectory(prefix="vihpm-mutant-") as tmp:
        work = Path(tmp) / "repo"
        shutil.copytree(ROOT, work, ignore=SKIP)
        if mutant is not None:
            target = work / "src" / mutant.path
            text = target.read_text(encoding="utf-8")
            count = text.count(mutant.old)
            if count != 1:
                raise SystemExit(
                    f"{mutant.name}: the text to replace occurs {count} times "
                    f"in src/{mutant.path}, not once"
                )
            target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(work / "src"))
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
            + list(tests),
            cwd=work,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            check=False,
        ).returncode


def main() -> int:
    started = time.perf_counter()
    wrong = 0
    for tests in dict.fromkeys(m.tests for m in MUTANTS):
        status = _run(tests, None)
        if status != 0:
            print(f"baseline: {' '.join(tests)} exits {status} on unedited code")
            wrong += 1
    if wrong:
        return 1
    for mutant in MUTANTS:
        begun = time.perf_counter()
        status = _run(mutant.tests, mutant)
        # pytest exits 1 when tests failed; other codes mean it could not run them
        outcome = {0: "survived", 1: "killed"}.get(status, f"pytest exit {status}")
        ok = outcome == {"killed": "killed", "equivalent": "survived"}[mutant.expected]
        wrong += not ok
        seconds = time.perf_counter() - begun
        verdict = "ok" if ok else "WRONG"
        print(f"{verdict:5} {outcome:8} {seconds:5.1f} s  {mutant.name}")
        if mutant.reason:
            print(f"{'':21}{mutant.expected}: {mutant.reason}")
    seconds = time.perf_counter() - started
    print(f"{len(MUTANTS)} mutants, {wrong} not as expected, {seconds:.0f} s")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
