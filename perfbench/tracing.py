"""Spans at the layer boundaries of ``vihpm``, recorded from outside.

The package binds its imports by name (``from .series import mul``), so a
function is wrapped where its caller looks it up: ``vihpm.engine.mul`` for
the engine's products, ``vihpm.solver.iterate`` for the solver's calls into
the engine, and so on.  Methods are wrapped on their class.  Every wrapped
call records one span (name, start, end, parent span, operation id) into
flat arrays held in memory; :meth:`Tracer.write` stores them at the end.

A span's self time is its duration minus the durations of its direct
children.  Calls are strictly nested on one thread, so the children never
overlap and their sum is the part of the interval they cover.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import Counter
from typing import Callable

NS_PER_MS = 1e6


class Tracer:
    """Span store and the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.current_op = -1
        self.ops = 0
        self.counts: Counter[str] = Counter()
        self.solve_steps: dict[int, int] = {}
        self._patches: list[tuple[object, str, object, object]] = []

    # -- recording -------------------------------------------------------

    def _open(self, name_id: int) -> int:
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.end.append(0)
        self._stack.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter_ns()
        self._stack.pop()

    def span(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """``fn`` wrapped to record a span; ``after(index, args, result)``
        runs on each successful return, outside the span."""
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.counts[name + ".raised"] += 1
                raise
            finally:
                self._close(index)
            if after is not None:
                after(index, args, result)
            return result

        return traced

    def begin_op(self) -> None:
        self.current_op = self.ops
        self.ops += 1

    # -- installing ------------------------------------------------------

    def patch(self, owner: object, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, getattr(owner, attr), wrapper))

    def enable(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def disable(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def install(self) -> None:
        """Build a wrapper for every layer boundary of the imported ``vihpm``
        package; :meth:`enable` puts them in place, :meth:`disable` takes
        them out again."""
        mod = importlib.import_module
        series, kernel = mod("vihpm.series"), mod("vihpm.kernel")
        engine, solver = mod("vihpm.engine"), mod("vihpm.solver")
        problems, diagnostics = mod("vihpm.problems"), mod("vihpm.diagnostics")
        reporting, cli = mod("vihpm.reporting"), mod("vihpm.cli")

        def count_madds(index, args, result):
            # the Cauchy product at degree W visits (W+1)(W+2)/2 pairs
            w = args[0].truncation
            self.counts["series.mul.madds"] += (w + 1) * (w + 2) // 2

        def record_solve(index, args, result):
            self.solve_steps[index] = result.newton_iterations
            if not result.converged:
                self.counts["solver.unconverged"] += 1

        original_post_init = series.Series.__post_init__

        def counted_post_init(obj):
            self.counts["series.construct"] += 1
            original_post_init(obj)

        self.patch(series.Series, "__post_init__", counted_post_init)

        wrap = self.patch
        for name in ("add", "sub", "differentiate", "expand_exppoly", "pad_to", "make_series"):
            wrap(engine, name, self.span(f"series.{name}", getattr(engine, name)))
        wrap(engine, "mul", self.span("series.mul", engine.mul, count_madds))
        wrap(series, "differentiate", self.span("series.differentiate", series.differentiate))
        wrap(series, "evaluate", self.span("series.evaluate", series.evaluate))
        wrap(solver, "evaluate_derivative",
             self.span("series.evaluate_derivative", solver.evaluate_derivative))
        wrap(diagnostics, "evaluate", self.span("series.evaluate", diagnostics.evaluate))
        wrap(reporting, "evaluate", self.span("series.evaluate", reporting.evaluate))

        wrap(kernel.CorrectionKernel, "integrate",
             self.span("kernel.integrate", kernel.CorrectionKernel.integrate))

        for name in ("correct_once", "residual"):
            wrap(engine, name, self.span(f"engine.{name}", getattr(engine, name)))
        wrap(solver, "iterate", self.span("engine.iterate", solver.iterate))
        wrap(diagnostics, "iterate", self.span("engine.iterate", diagnostics.iterate))

        for owner in (solver, cli):
            wrap(owner, "solve", self.span("solver.solve", owner.solve, record_solve))
        wrap(solver, "fd_jacobian", self.span("solver.fd_jacobian", solver.fd_jacobian))

        wrap(cli, "parse_problem", self.span("problems.parse", cli.parse_problem))
        wrap(cli, "with_settings", self.span("problems.with_settings", cli.with_settings))
        for owner in (problems, solver):
            wrap(owner, "validate", self.span("problems.validate", owner.validate))

        wrap(cli, "analyze_convergence",
             self.span("diagnostics.analyze_convergence", cli.analyze_convergence))
        wrap(cli, "default_grid", self.span("diagnostics.default_grid", cli.default_grid))
        wrap(cli, "error_table", self.span("reporting.error_table", cli.error_table))
        wrap(cli, "main", self.span("cli.main", cli.main))

    # -- results ---------------------------------------------------------

    def self_and_total_ns(self) -> tuple[Counter[str], Counter[str], Counter[str]]:
        """Self time, inclusive time and call count per span name."""
        names = self.names
        durations = array("q", (e - s for s, e in zip(self.start, self.end)))
        own = array("q", durations)
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= durations[index]
        self_ns: Counter[str] = Counter()
        total_ns: Counter[str] = Counter()
        calls: Counter[str] = Counter()
        for name_id, d, o in zip(self.name_id, durations, own):
            name = names[name_id]
            self_ns[name] += o
            total_ns[name] += d
            calls[name] += 1
        return self_ns, total_ns, calls

    def useful_iterate_ratio(self) -> float:
        """Accepted evaluations (Newton steps + 1) over ``iterate`` calls
        inside the ``solve`` calls that returned."""
        solve_id = self._name_ids.get("solver.solve", -1)
        iterate_id = self._name_ids.get("engine.iterate", -1)
        iterates_in: Counter[int] = Counter()
        for index, name_id in enumerate(self.name_id):
            if name_id != iterate_id:
                continue
            parent = self.parent[index]
            while parent >= 0 and self.name_id[parent] != solve_id:
                parent = self.parent[parent]
            if parent >= 0:
                iterates_in[parent] += 1
        calls = sum(iterates_in[index] for index in self.solve_steps)
        useful = sum(steps + 1 for steps in self.solve_steps.values())
        return useful / calls if calls else 0.0

    def metrics(self) -> dict[str, float]:
        """Per-operation layer metrics; a layer never called reports 0."""
        ops = max(self.ops, 1)
        self_ns, total_ns, calls = self.self_and_total_ns()

        def ms(counter: Counter[str], *names: str) -> float:
            return sum(counter[n] for n in names) / NS_PER_MS / ops

        def layer_self_ms(prefix: str) -> float:
            return sum(v for k, v in self_ns.items() if k.startswith(prefix)) / NS_PER_MS / ops

        return {
            "series.construct.count": self.counts["series.construct"] / ops,
            "series.mul.calls": calls["series.mul"] / ops,
            "series.mul.self_ms": ms(self_ns, "series.mul"),
            "series.mul.madds_computed": self.counts["series.mul.madds"] / ops,
            "series.differentiate.self_ms": ms(self_ns, "series.differentiate"),
            "series.expand_exppoly.calls": calls["series.expand_exppoly"] / ops,
            "series.expand_exppoly.self_ms": ms(self_ns, "series.expand_exppoly"),
            "series.addsub.self_ms": ms(self_ns, "series.add", "series.sub"),
            "series.evaluate.self_ms": ms(
                self_ns, "series.evaluate", "series.evaluate_derivative"
            ),
            "series.self_ms": layer_self_ms("series."),
            "kernel.integrate.calls": calls["kernel.integrate"] / ops,
            "kernel.integrate.self_ms": ms(self_ns, "kernel.integrate"),
            "engine.iterate.calls": calls["engine.iterate"] / ops,
            "engine.iterate.ms": ms(total_ns, "engine.iterate"),
            "engine.correct_once.self_ms": ms(self_ns, "engine.correct_once"),
            "engine.residual.self_ms": ms(self_ns, "engine.residual"),
            "solver.newton_steps": sum(self.solve_steps.values()) / ops,
            "solver.fd_jacobian.calls": calls["solver.fd_jacobian"] / ops,
            "solver.fd_jacobian.ms": ms(total_ns, "solver.fd_jacobian"),
            "solver.self_ms": layer_self_ms("solver."),
            "solver.iterate_useful_ratio": self.useful_iterate_ratio(),
            "solver.unconverged.count": (
                self.counts["solver.unconverged"] + self.counts["solver.solve.raised"]
            ) / ops,
            "problems.parse.ms": ms(total_ns, "problems.parse"),
            "problems.validate.ms": ms(total_ns, "problems.validate"),
            "diagnostics.analyze_convergence.ms": ms(
                total_ns, "diagnostics.analyze_convergence"
            ),
            "reporting.error_table.ms": ms(total_ns, "reporting.error_table"),
            "cli.self_ms": ms(self_ns, "cli.main"),
        }

    def write(self, path) -> None:
        """Store every span as one tab-separated line."""
        names = self.names
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("op\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for index in range(len(self.start)):
                handle.write(
                    f"{self.op[index]}\t{index}\t{self.parent[index]}\t"
                    f"{names[self.name_id[index]]}\t{self.start[index]}\t"
                    f"{self.end[index]}\n"
                )
