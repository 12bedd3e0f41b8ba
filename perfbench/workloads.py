"""The three workloads: what one operation is and how its answer is checked.

``paper``      ``solve()`` on the four built-ins at the paper's settings
               (W=12, k=1): short series, so per-call overhead and the
               finite-difference Jacobian dominate.
``stretched``  the same built-ins at W=30, k=3: long series, so the O(W^2)
               ring arithmetic and per-coefficient validation dominate.
``family``     seeded manufactured problems run through ``vihpm.cli.main``
               in-process: the only workload that reaches the parser,
               reporting, diagnostics and the command line, with Newton
               dimensions 0..7 and nonlinear initial-value problems.

What a user pays before the first operation is in :mod:`startup`.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import os
import random
from collections import Counter

import checker
import genproblems
from startup import BUILTINS, SETTINGS

NAMES = ("paper", "stretched", "family")


class Builtins:
    """``solve()`` on the built-ins, rotating through them in a seeded order."""

    def __init__(self, name: str, seed: int, specs: dict) -> None:
        self.name = name
        self.specs = specs
        self.order = list(BUILTINS)
        random.Random(seed).shuffle(self.order)
        self.pass_length = len(self.order)
        self.solver = importlib.import_module("vihpm.solver")

    def describe(self) -> str:
        truncation, iterations = SETTINGS[self.name]
        dims = {n: self.specs[n].unknown_count() for n in self.order}
        return (
            f"W={truncation} k={iterations}; builtin order {self.order}; "
            f"newton dimensions {dims}"
        )

    def call(self, i: int) -> object:
        spec = self.specs[self.order[i % len(self.order)]]
        try:
            # looked up on the module at every call so a tracer can wrap it
            return self.solver.solve(spec)
        except Exception as exc:  # a raising solve is a failed operation
            return exc

    def check(self, i: int, output: object) -> tuple[str, str]:
        n = self.order[i % len(self.order)]
        if isinstance(output, Exception):
            return checker.FAILED, f"builtin {n} raised {output!r}"
        return checker.check_builtin(
            n, output.converged, output.solution.coeffs, self.name == "stretched"
        )


class Family:
    """Manufactured problems written as files and run through the CLI."""

    def __init__(self, seed: int, workdir: str, cli: object) -> None:
        self.cli = cli
        self.problems = genproblems.generate(seed)
        self.pass_length = len(self.problems)
        self.argvs = []
        for problem in self.problems:
            path = os.path.join(workdir, problem.name + ".txt")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(problem.text)
            self.argvs.append(problem.argv(path))

    def describe(self) -> str:
        dims = Counter(p.dimension for p in self.problems)
        commands = Counter(p.command for p in self.problems)
        return (
            f"{len(self.problems)} problems; commands {dict(sorted(commands.items()))}; "
            f"newton dimensions {dict(sorted(dims.items()))}"
        )

    def call(self, i: int) -> tuple[object, str]:
        argv = self.argvs[i % len(self.argvs)]
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                # looked up on the module at every call so a tracer can wrap it
                code = self.cli.main(argv)
        except (Exception, SystemExit) as exc:  # a raising command is a failed operation
            code = type(exc).__name__
        return code, out.getvalue()

    def check(self, i: int, output: tuple[object, str]) -> tuple[str, str]:
        problem = self.problems[i % len(self.problems)]
        code, stdout = output
        outcome, message = checker.classify_cli(
            problem.command, code, problem.text, stdout, genproblems.CONVERGENCE_DEPTH
        )
        return outcome, f"{problem.name} ({problem.command}): {message}" if message else ""


def make(name: str, seed: int, workdir: str, state: object):
    """The workload ``name`` on inputs drawn from ``seed``."""
    if name == "family":
        return Family(seed, workdir, state)
    return Builtins(name, seed, state)
