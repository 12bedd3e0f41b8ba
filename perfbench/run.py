#!/usr/bin/env python3
"""Benchmark of the vihpm series solver, driven from outside its package.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports ``vihpm`` from its
``src/`` directory.  One process, one closed-loop client, no threads: each
operation starts when the previous one has returned and been checked.

With ``--trace 0`` it prints the end-to-end metrics, measured untraced:

    op_ms.p50, op_ms.p90  wall time of one operation; p50 is the mean of the
                          45th-55th percentiles (see Loop.p50_ms)
    ops_per_s             operations per second of loop time (checks included)
    ok_ratio              1 - fail_ratio; a failed operation raised, did not
                          converge or returned an unexpected exit code
    setup_s               median over fresh interpreters of the time from the
                          first import of vihpm to the first operation
    peak_rss_mb           maximum resident set size of this process

Times are scaled to a reference machine speed measured by ``calibrate.py``
during the run, each operation by the speed around it; the raw values are
printed alongside.

With ``--trace 1`` it wraps every layer boundary (see ``tracing.py``), runs
each operation untraced and then traced, and prints the per-layer metrics
per traced operation plus the tracing overhead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 1 when any
operation the program reported as successful fails its check, or when the
program cannot be found or set up.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import checker  # noqa: E402
import startup  # noqa: E402
import workloads  # noqa: E402

WARMUP_SECONDS = 2.0
MIN_TIMED_OPS = 100
SETUP_PROBES = 21
PROBE_KERNELS = 3
PROBE_TIMEOUT_S = 60
TRACE_MAX_SPANS = 600_000


@dataclass
class Loop:
    """Outcome of one closed-loop phase."""

    times: list[float] = field(default_factory=list)
    # per operation: call and check time, and kernel samples taken before it
    busy: list[float] = field(default_factory=list)
    marks: list[int] = field(default_factory=list)
    outcomes: Counter = field(default_factory=Counter)
    wrong: list[str] = field(default_factory=list)
    failures: Counter = field(default_factory=Counter)
    speed: calibrate.Speed = field(default_factory=calibrate.Speed)
    elapsed: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.times)

    @property
    def failed(self) -> int:
        return self.outcomes[checker.FAILED]

    def p50_ms(self) -> float:
        return p50_ms(self.times)

    def p90_ms(self) -> float:
        return p90_ms(self.times)

    def scaled(self) -> tuple[list[float], float]:
        """Operation times and loop time in reference time, each operation
        scaled by the machine speed measured around it."""
        factors = self.speed.factors()
        times = [t * factors[j] for t, j in zip(self.times, self.marks)]
        busy = math.fsum(t * factors[j] for t, j in zip(self.busy, self.marks))
        return times, busy


def p50_ms(times: list[float]) -> float:
    """Median, estimated as the mean of the central tenth of the sorted
    times (45th to 55th percentile).

    ``paper`` and ``stretched`` rotate through four builtins of different
    cost, so their times form four clusters and the plain median falls
    between the second and the third and reads one value from the tail of
    each.  The band averages a tenth of the sample instead.
    """
    ordered = sorted(times)
    n = len(ordered)
    return statistics.fmean(ordered[int(0.45 * n) : math.ceil(0.55 * n)]) * 1e3


def p90_ms(times: list[float]) -> float:
    return statistics.quantiles(times, n=10)[8] * 1e3


def timed_op(loop: Loop, workload, i: int) -> None:
    """Run, time and check operation ``i``, recording it in ``loop``."""
    loop.marks.append(len(loop.speed.samples))
    t0 = time.perf_counter()
    output = workload.call(i)
    loop.times.append(time.perf_counter() - t0)
    outcome, message = workload.check(i, output)
    loop.busy.append(time.perf_counter() - t0)
    loop.outcomes[outcome] += 1
    if outcome == checker.WRONG:
        loop.wrong.append(message)
    elif outcome == checker.FAILED:
        loop.failures[message] += 1


def run_loop(workload, seconds: float) -> Loop:
    """Whole passes over the workload's inputs until ``seconds`` have passed
    and at least ``MIN_TIMED_OPS`` ran.  Ending on a pass boundary keeps the
    mix of operations the same in every run."""
    loop = Loop()
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while i < MIN_TIMED_OPS or i % workload.pass_length or time.perf_counter() < deadline:
        timed_op(loop, workload, i)
        loop.speed.maybe_sample()
        i += 1
    loop.elapsed = time.perf_counter() - start - loop.speed.spent
    return loop


def run_traced(workload, tracer, seconds: float) -> tuple[Loop, Loop]:
    """Each operation once untraced and then once traced, alternating so
    both sides see the same machine; stops after ``seconds`` (and at least
    ``MIN_TIMED_OPS`` pairs) or once ``TRACE_MAX_SPANS`` spans are held."""
    plain, traced = Loop(), Loop()
    traced.speed = plain.speed
    deadline = time.perf_counter() + seconds
    i = 0
    while i < MIN_TIMED_OPS or (
        time.perf_counter() < deadline and len(tracer.start) < TRACE_MAX_SPANS
    ):
        timed_op(plain, workload, i)
        tracer.enable()
        try:
            tracer.begin_op()
            timed_op(traced, workload, i)
        finally:
            tracer.disable()
        plain.speed.maybe_sample()
        i += 1
    return plain, traced


def warm_up(workload, seconds: float) -> None:
    """Untimed operations, so caches fill and the clock settles."""
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        workload.call(i)
        i += 1


def measure_setup(name: str) -> tuple[float, float]:
    """Median set-up time over fresh interpreters, raw and in reference
    time.  Each probe is scaled by kernel samples taken just before and
    after it.  The first probe, which may compile bytecode, is discarded."""
    raw, scaled = [], []
    for _ in range(SETUP_PROBES + 1):
        kernels = [calibrate.kernel_seconds() for _ in range(PROBE_KERNELS)]
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "startup.py"), SRC, name],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        kernels += [calibrate.kernel_seconds() for _ in range(PROBE_KERNELS)]
        raw.append(float(proc.stdout))
        scaled.append(raw[-1] * calibrate.reference_factor(kernels))
    return statistics.median(raw[1:]), statistics.median(scaled[1:])


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def report(lines: list[tuple[str, float, str, str]]) -> None:
    for name, value, unit, note in lines:
        print(f"  {name:<36} {value:>14.6g} {unit:<6} {note}")


def end_to_end(workload, seconds: float, setup: tuple[float, float]) -> tuple[Loop, dict]:
    loop = run_loop(workload, seconds)
    n = loop.attempted
    times, busy = loop.scaled()
    raw = {
        "op_ms.p50": loop.p50_ms(),
        "op_ms.p90": loop.p90_ms(),
        "ops_per_s": n / loop.elapsed,
        "setup_s": setup[0],
    }
    metrics = {
        "op_ms.p50": (p50_ms(times), "ms"),
        "op_ms.p90": (p90_ms(times), "ms"),
        "ops_per_s": (n / busy, "1/s"),
        "ok_ratio": ((n - loop.failed) / n, "ratio"),
        "setup_s": (setup[1], "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes = {
        "op_ms.p50": f"n={n}",
        "op_ms.p90": f"n={n}, {n // 10} beyond",
        "ops_per_s": f"{n} ops in {loop.elapsed:.3f} s of loop time",
        "ok_ratio": f"fail_ratio {loop.failed / n:.6g} ({loop.failed}/{n})",
        "setup_s": f"median of {SETUP_PROBES} fresh interpreters",
        "peak_rss_mb": "this process",
    }
    factors = loop.speed.factors()
    print(
        f"  machine speed: calibration kernel {calibrate.REFERENCE_KERNEL_MS / loop.speed.scale():.4f} ms "
        f"(median of {len(loop.speed.samples)}); times scaled to "
        f"{calibrate.REFERENCE_KERNEL_MS} ms per kernel by factors "
        f"{min(factors):.4f}-{max(factors):.4f}, from the {2 * calibrate.WINDOW_SAMPLES} "
        f"samples around each operation"
    )
    report([
        (k, v, u, (f"raw {raw[k]:.6g}; " if k in raw else "") + notes[k])
        for k, (v, u) in metrics.items()
    ])
    return loop, metrics


def per_layer(workload, name: str, seconds: float) -> tuple[Loop, dict]:
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    plain, traced = run_traced(workload, tracer, seconds)
    scale = plain.speed.scale()
    overhead = traced.p50_ms() - plain.p50_ms()
    print(
        f"  tracing overhead: op_ms.p50 {traced.p50_ms():.4f} traced vs "
        f"{plain.p50_ms():.4f} untraced = {overhead:+.4f} ms raw, over the same "
        f"{traced.attempted} operations each; {len(tracer.start)} spans; "
        f"times below scaled by {scale:.4f}"
    )
    layer = tracer.metrics()
    layer["trace.overhead_ms"] = overhead
    metrics = {}
    for k, v in layer.items():
        unit = unit_of(k)
        metrics[k] = (v * scale if unit == "ms" else v, unit)
    report([(k, v, u, f"per op, n={traced.attempted}") for k, (v, u) in metrics.items()])
    path = os.path.join(WORK, f"spans-{name}.tsv")
    tracer.write(path)
    print(f"  spans written to {os.path.relpath(path, ROOT)}")
    loop = Loop(
        times=plain.times + traced.times,
        outcomes=plain.outcomes + traced.outcomes,
        wrong=plain.wrong + traced.wrong,
        failures=plain.failures + traced.failures,
    )
    return loop, metrics


def unit_of(metric: str) -> str:
    if metric.endswith("ms"):
        return "ms"
    if metric.endswith("ratio"):
        return "ratio"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not os.path.isfile(os.path.join(SRC, "vihpm", "__init__.py")):
        print(f"error: no vihpm package under {SRC}", file=sys.stderr)
        return 1
    setup = (0.0, 0.0)
    if not args.trace:
        try:
            setup = measure_setup(args.workload)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    sys.path.insert(0, SRC)
    state = startup.setup(args.workload)
    import vihpm

    if os.path.dirname(os.path.dirname(os.path.abspath(vihpm.__file__))) != SRC:
        print(f"error: vihpm imported from {vihpm.__file__}, not {SRC}", file=sys.stderr)
        return 1

    os.makedirs(WORK, exist_ok=True)
    inputs = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(inputs)
    try:
        workload = workloads.make(args.workload, args.seed, inputs, state)
        print(f"workload {args.workload}, seed {args.seed}: {workload.describe()}")
        warm_up(workload, WARMUP_SECONDS)
        if args.trace:
            loop, metrics = per_layer(workload, args.workload, args.seconds)
        else:
            loop, metrics = end_to_end(workload, args.seconds, setup)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    for message, count in sorted(loop.failures.items()):
        print(f"  failed operation: {message} (x{count})")
    for message in loop.wrong:
        print(f"wrong answer: {message}", file=sys.stderr)
    correct = not loop.wrong
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed + len(loop.wrong),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
