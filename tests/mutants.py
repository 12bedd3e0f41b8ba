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
PICARD_TESTS = ("tests/test_trusted_ring.py::TestPicardStep", "tests/test_engine.py")
DERIVATIVE_TESTS = (
    "tests/test_series.py",
    "tests/test_trusted_ring.py::TestDerivativeWithoutCopies",
)
DENSE_SOLVE_TESTS = ("tests/test_trusted_ring.py::TestDenseSolve",)
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
COUNT_TESTS = ("tests/test_series.py::TestInputTypes",)
GRID_TESTS = (
    "tests/test_cli.py::TestGrid",
    "tests/test_cli.py::TestSolveCommand::test_grid_step_ends_at_the_domain_end",
)
TABLE_TESTS = ("tests/test_reporting.py::TestErrorTable",)

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
        "_picard: the integral negated as -(f_j * w_j), which is -0.0 at a zero",
        "vihpm/engine.py",
        "0.0 - c * w for c, w",
        "-(c * w) for c, w",
        PICARD_TESTS,
        "killed",
    ),
    Mutant(
        "_picard: the integral added instead of subtracted",
        "vihpm/engine.py",
        "0.0 - c * w for c, w",
        "c * w for c, w",
        PICARD_TESTS,
        "killed",
    ),
    Mutant(
        "evaluate_derivative: the falling factorials taken in the wrong order",
        "vihpm/series.py",
        "zip(reversed(f.coeffs[order:]), reversed(falls))",
        "zip(reversed(f.coeffs[order:]), falls)",
        DERIVATIVE_TESTS,
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
        "_sparse_first(weight, differentiate(dv, d))",
        "mul(weight, differentiate(dv, d))",
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
        "_make_grid: a dividing step's last point is i * end / n, not end",
        "vihpm/cli.py",
        "(*[i * end / n for i in range(n)], end)",
        "tuple([i * end / n for i in range(n + 1)])",
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
