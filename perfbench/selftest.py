#!/usr/bin/env python3
"""Self-tests of the benchmark's generator and checker.

    python3 perfbench/selftest.py

Kept out of the package's test suite: these test the benchmark, not vihpm.
The checker tests run real ``vihpm.cli`` commands from ``src/``.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checker  # noqa: E402
import genproblems  # noqa: E402
import workloads  # noqa: E402

SAMPLE_POINTS = 7
ROUND_OFF = 1e-12


def parse(text: str) -> dict:
    """The fields of a generated problem, read back from its text."""
    out = {"terms": [], "bcs": [], "exact": []}
    for line in text.splitlines():
        keyword, *rest = line.split()
        if keyword in ("order", "truncation", "iterations"):
            out[keyword] = int(rest[0])
        elif keyword == "domain":
            out["b"] = float(rest[1])
        elif keyword == "term":
            head, _, tail = " ".join(rest).partition(";")
            rate, *poly = map(float, head.split())
            out["terms"].append((rate, poly, [int(d) for d in tail.split()]))
        elif keyword == "bc":
            out["bcs"].append((float(rest[0]), int(rest[1]), float(rest[2])))
        elif keyword == "exact":
            rate, *poly = map(float, rest)
            out["exact"].append((rate, poly))
    return out


def exppoly_derivative(rate: float, poly: list[float], order: int, x: float) -> float:
    """``(exp(a x) p(x))^(order)`` by the Leibniz rule, independent of the
    generator's recurrence."""
    total = 0.0
    for j in range(order + 1):
        pj = sum(
            c * math.prod(range(k - j + 1, k + 1)) * x ** (k - j)
            for k, c in enumerate(poly)
            if k >= j
        )
        total += math.comb(order, j) * rate ** (order - j) * pj
    return math.exp(rate * x) * total


def cli_run(argv: list[str]) -> tuple[int, str]:
    from vihpm import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


class GeneratorTest(unittest.TestCase):
    def test_same_seed_gives_byte_identical_files(self):
        dirs = [tempfile.mkdtemp(dir=ROOT, prefix=".selftest-") for _ in range(2)]
        try:
            for d in dirs:
                workloads.Family(5, d, cli=None)
            names = sorted(os.listdir(dirs[0]))
            self.assertEqual(len(names), genproblems.POOL_SIZE)
            self.assertEqual(names, sorted(os.listdir(dirs[1])))
            for name in names:
                with open(os.path.join(dirs[0], name), "rb") as a, open(
                    os.path.join(dirs[1], name), "rb"
                ) as b:
                    self.assertEqual(a.read(), b.read(), name)
        finally:
            for d in dirs:
                shutil.rmtree(d)

    def test_same_seed_across_interpreters(self):
        code = (
            "import hashlib, genproblems; print(hashlib.sha256("
            "''.join(p.text for p in genproblems.generate(5)).encode()).hexdigest())"
        )
        digests = {
            subprocess.run(
                [sys.executable, "-c", code],
                cwd=HERE,
                env={**os.environ, "PYTHONHASHSEED": str(hash_seed)},
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            for hash_seed in (1, 2)
        }
        self.assertEqual(len(digests), 1)

    def test_other_seed_gives_other_problems(self):
        a = [p.text for p in genproblems.generate(5)]
        b = [p.text for p in genproblems.generate(6)]
        self.assertNotEqual(a, b)

    def test_pool_is_the_balanced_design(self):
        pool = genproblems.generate(9)
        cells = {(p.order, parse(p.text)["truncation"]) for p in pool}
        self.assertEqual(len(cells), len(genproblems.ORDERS) * len(genproblems.TRUNCATIONS))
        commands = [p.command for p in pool]
        self.assertEqual(commands.count("convergence") * 4, len(pool))
        for p in pool:
            fields = parse(p.text)
            self.assertEqual(fields["iterations"], -(-fields["truncation"] // p.order))
            self.assertEqual(len(fields["bcs"]), p.order)
            self.assertEqual(p.dimension, sum(1 for pt, _, _ in fields["bcs"] if pt != 0.0))
            if p.dimension:
                self.assertTrue(
                    all(len(factors) <= 1 for _, _, factors in fields["terms"]), p.name
                )
        self.assertTrue(any(
            len(factors) == 2 for p in pool for _, _, factors in parse(p.text)["terms"]
        ))

    def test_exact_solution_satisfies_equation_and_conditions(self):
        for seed in (1, 2):
            for p in genproblems.generate(seed):
                fields = parse(p.text)
                (rate, poly), = fields["exact"]
                m, b = fields["order"], fields["b"]

                def u(d: float, x: float) -> float:
                    return exppoly_derivative(rate, poly, d, x)

                for i in range(SAMPLE_POINTS):
                    x = b * i / (SAMPLE_POINTS - 1)
                    parts = [u(m, x)]
                    for t_rate, t_poly, factors in fields["terms"]:
                        value = math.exp(t_rate * x) * sum(
                            c * x**k for k, c in enumerate(t_poly)
                        )
                        for d in factors:
                            value *= u(d, x)
                        parts.append(-value)
                    scale = math.fsum(abs(v) for v in parts)
                    self.assertLessEqual(
                        abs(math.fsum(parts)), ROUND_OFF * max(1.0, scale), (p.name, x)
                    )
                for point, d, value in fields["bcs"]:
                    self.assertLessEqual(
                        abs(u(d, point) - value),
                        ROUND_OFF * max(1.0, abs(value)),
                        (p.name, point, d),
                    )


class CheckerTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.mkdtemp(dir=ROOT, prefix=".selftest-")

    def tearDown(self):
        shutil.rmtree(self.dir)

    def write(self, text: str) -> str:
        path = os.path.join(self.dir, "problem.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return path

    def test_corrupted_coefficient_is_a_wrong_answer(self):
        problem = next(
            p for p in genproblems.generate(3) if p.command == "solve" and p.dimension >= 2
        )
        code, stdout = cli_run(problem.argv(self.write(problem.text)))
        self.assertEqual(code, 0, problem.name)
        depth = genproblems.CONVERGENCE_DEPTH
        self.assertEqual(
            checker.classify_cli("solve", code, problem.text, stdout, depth)[0], checker.OK
        )
        # the coefficient of x^d enters u^(d) with weight d!, so a relative
        # change of 1e-6 lands far outside the round-off allowance
        _, d, _ = checker.off_origin_conditions(problem.text)[0]
        prefix = f"  x^{d}: "
        lines = stdout.splitlines()
        index = next(i for i, line in enumerate(lines) if line.startswith(prefix))
        value = float(lines[index][len(prefix):])
        lines[index] = prefix + repr(value + 1e-6 * max(1.0, abs(value)))
        outcome, message = checker.classify_cli(
            "solve", code, problem.text, "\n".join(lines) + "\n", depth
        )
        self.assertEqual(outcome, checker.WRONG, message)

    def test_non_converged_exit_2_is_a_failed_operation(self):
        # u' = u^2 has the solutions c / (1 - c x), none of which is -1 at
        # x = 1, so Newton cannot meet the condition
        text = (
            "order 1\ndomain 0 1\ntruncation 12\niterations 1\n"
            "term 0.0 1.0 ; 0 0\nbc 1.0 0 -1.0\n"
        )
        for command in ("solve", "convergence"):
            argv = [command, self.write(text)]
            code, stdout = cli_run(argv)
            self.assertEqual(code, 2)
            outcome, _ = checker.classify_cli(command, code, text, stdout, 4)
            self.assertEqual(outcome, checker.FAILED)

    def test_convergence_output_is_checked(self):
        problem = next(p for p in genproblems.generate(4) if p.command == "convergence")
        code, stdout = cli_run(problem.argv(self.write(problem.text)))
        self.assertEqual(code, 0)
        depth = genproblems.CONVERGENCE_DEPTH
        self.assertEqual(checker.check_convergence_output(stdout, depth), "")
        flipped = stdout.replace("contraction_ok: True", "contraction_ok: False")
        self.assertNotEqual(flipped, stdout)
        self.assertNotEqual(checker.check_convergence_output(flipped, depth), "")

    def test_builtin_checks(self):
        from vihpm import builtin, solve, with_settings

        for n in (1, 2, 3, 4):
            paper = solve(builtin(n))
            self.assertEqual(
                checker.check_builtin(n, True, paper.solution.coeffs, False)[0], checker.OK
            )
            stretched = solve(with_settings(builtin(n), truncation=30, iterations=3))
            self.assertEqual(
                checker.check_builtin(n, True, stretched.solution.coeffs, True)[0],
                checker.OK,
            )
            # the paper-setting answer is far from the stretched tolerance
            self.assertEqual(
                checker.check_builtin(n, True, paper.solution.coeffs, True)[0],
                checker.WRONG,
            )
            self.assertEqual(
                checker.check_builtin(n, False, paper.solution.coeffs, False)[0],
                checker.FAILED,
            )


if __name__ == "__main__":
    unittest.main()
