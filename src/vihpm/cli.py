"""Command-line interface: solve problems, print tables, dump diagnostics.

Each command checks its request, solves, and builds everything that can
still fail (grid, error table, output files) before it writes its lines
to stdout in one write, so an exit-1 path leaves stdout empty.  Output
files replace their paths all together or not at all.  The parser is
built on the first call.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import math
import os
import sys
from typing import IO, Callable, Sequence

from .diagnostics import analyze_convergence, check_depth, default_grid
from .engine import NonFiniteIterateError
from .problems import (
    BUILTIN_COUNT,
    InvalidProblemError,
    ProblemSpec,
    builtin,
    parse_problem,
    with_settings,
)
from .reporting import ErrorTable, emit_csv, emit_series_csv, error_table
from .solver import SingularJacobianError, SolveResult, solve

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_SOLVER_FAILURE = 2

# bounds the work ``--grid-step`` can request
MAX_GRID_POINTS = 100_000


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vihpm",
        description=(
            "Series solutions of high-order two- and multi-point boundary "
            "value problems via iterated integral corrections."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_source(p: argparse.ArgumentParser) -> None:
        p.add_argument("file", nargs="?", help="problem description file")
        p.add_argument(
            "--builtin",
            type=int,
            metavar="N",
            help=f"use built-in benchmark problem N (1..{BUILTIN_COUNT})",
        )
        p.add_argument("--truncation", type=int, help="series degree of the initial stage")
        p.add_argument("--iterations", type=int, help="number of correction passes")

    p_solve = sub.add_parser("solve", help="determine constants and print the error table")
    add_source(p_solve)
    p_solve.add_argument(
        "--grid-step", type=float, default=0.1, help="evaluation grid spacing (default 0.1)"
    )
    p_solve.add_argument("--emit-csv", metavar="PATH", help="write the error table as CSV")
    p_solve.add_argument(
        "--emit-series", metavar="PATH", help="write solution coefficients as CSV"
    )

    p_conv = sub.add_parser("convergence", help="empirical contraction diagnostics")
    add_source(p_conv)
    p_conv.add_argument(
        "--depth", type=int, default=3, help="number of corrections to run (default 3)"
    )
    return parser


def _load_spec(args: argparse.Namespace) -> ProblemSpec:
    if (args.file is None) == (args.builtin is None):
        raise InvalidProblemError(
            ["give exactly one problem source: a file or --builtin N"]
        )
    if args.builtin is not None:
        spec = builtin(args.builtin)
    else:
        with open(args.file, "r", encoding="utf-8") as handle:
            spec = parse_problem(handle.read())
    return with_settings(spec, truncation=args.truncation, iterations=args.iterations)


def _make_grid(end: float, step: float) -> tuple[float, ...]:
    if not (math.isfinite(step) and step > 0.0):
        raise InvalidProblemError([f"grid step must be positive and finite, got {step}"])
    # the grid has at most end / step + 1 points
    if end / step > MAX_GRID_POINTS - 1:
        raise InvalidProblemError(
            [f"grid step {step} gives over {MAX_GRID_POINTS} points on [0, {end}]"]
        )
    n = round(end / step)
    if n >= 1 and abs(n * step - end) <= 1e-9 * max(1.0, end):
        return (*[i * end / n for i in range(n)], end)
    n = int(end / step + 1e-9)
    return tuple(i * step for i in range(n + 1))


def _table_lines(table: ErrorTable) -> list[str]:
    if table.max_abs_error is None:
        return [f"{'x':>6} {'approx':>24}"] + [
            f"{row.x:>6.3f} {row.approx:>24.16e}" for row in table.rows
        ]
    return [f"{'x':>6} {'exact':>24} {'approx':>24} {'abs_error':>14}"] + [
        f"{row.x:>6.3f} {row.exact:>24.16e} {row.approx:>24.16e} {row.abs_error:>14.6e}"
        for row in table.rows
    ] + [f"max abs error: {table.max_abs_error:.6e}"]


def _unconverged(result: SolveResult) -> int:
    print(
        f"solver did not converge: residual {result.bc_residual_norm:.3e} "
        f"after {result.newton_iterations} iterations",
        file=sys.stderr,
    )
    return EXIT_SOLVER_FAILURE


def _write_outputs(outputs: Sequence[tuple[str, Callable[[IO[str]], None]]]) -> None:
    """Write each ``(path, write)`` output, replacing all paths or none.

    Every output goes to a new temporary file beside its path first, and
    the paths are replaced (``os.replace``) only once all are written, so a
    failure leaves existing files as they were and no temporary file behind.
    A temporary name that a file already has, such as one left by a killed
    run of the same pid, is skipped and its file left alone.  A temporary
    file is created as ``open(path, "w")`` creates one, so a replaced
    output gets the mode the umask gives.
    """
    staged: list[tuple[str, str]] = []
    try:
        for path, write in outputs:
            head, name = os.path.split(path)
            for n in itertools.count():
                temp = os.path.join(head, f".{name}.{os.getpid()}.{n}.tmp")
                with contextlib.suppress(FileExistsError):
                    handle = open(temp, "x", encoding="utf-8")
                    break
            with handle:
                staged.append((temp, path))
                write(handle)
        for temp, path in staged:
            os.replace(temp, path)
    except BaseException:
        for temp, _ in staged:
            with contextlib.suppress(OSError):
                os.remove(temp)
        raise


def _run_solve(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    # a symbolic link keeps pointing at the file it names
    given = (args.emit_csv, args.emit_series)
    paths = [p if p is None else os.path.realpath(p) for p in given]
    named = [p for p in paths if p is not None]
    # one path would take one output and lose the other
    if len(set(named)) < len(named):
        raise InvalidProblemError(["--emit-csv and --emit-series name the same file"])
    # a rename would replace a device or a pipe with a file, and a directory
    # would refuse it after the other output had replaced its file
    if any(os.path.exists(p) and not os.path.isfile(p) for p in named):
        raise InvalidProblemError(["an output path names something other than a file"])
    grid = _make_grid(spec.domain_end, args.grid_step)
    result = solve(spec)
    # everything that can still raise happens before stdout is written
    table = error_table(spec, result, grid)
    writers = (
        functools.partial(emit_csv, table),
        functools.partial(emit_series_csv, result.solution),
    )
    _write_outputs([(p, write) for p, write in zip(paths, writers) if p is not None])

    degrees = spec.unknown_degrees()
    if degrees:
        lines = ["solved constants:"] + [
            f"  coefficient of x^{d}: {c!r}" for d, c in zip(degrees, result.constants)
        ]
    else:
        lines = ["no free constants (all conditions at the origin)"]
    lines.append(f"newton iterations: {result.newton_iterations}")
    lines.append(f"boundary residual sup-norm: {result.bc_residual_norm:.6e}")

    lines.append("series coefficients:")
    lines += [f"  x^{degree}: {c!r}" for degree, c in enumerate(result.solution.coeffs)]
    lines += _table_lines(table)
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK if result.converged else _unconverged(result)


def _run_convergence(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    check_depth(spec, args.depth)
    result = solve(spec)
    if not result.converged:
        return _unconverged(result)
    report = analyze_convergence(
        spec, result.constants, args.depth, default_grid(spec), result.iterates
    )
    lines = [
        "correction sup-norms:",
        *[f"  delta_{k}: {d:.6e}" for k, d in enumerate(report.deltas)],
        "contraction ratio estimates:",
        *[f"  gamma_{k}: {g:.6e}" for k, g in enumerate(report.gamma_estimates)],
        f"gamma_max: {report.gamma_max:.6e}",
        f"contraction_ok: {report.contraction_ok}",
        f"banach_bound_ok: {report.banach_bound_ok}",
        f"fixed_point_reached: {report.fixed_point_reached}",
    ]
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "solve":
            return _run_solve(args)
        return _run_convergence(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (SingularJacobianError, NonFiniteIterateError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER_FAILURE
