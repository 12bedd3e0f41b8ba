"""Command-line interface: solve problems, print tables, dump diagnostics.

Each command checks its request, solves, and builds everything that can
still fail (grid, error table, output files) before its first print, so an
exit-1 path leaves stdout empty.  The parser is built on the first call.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import sys
from typing import Sequence

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
        return tuple(i * end / n for i in range(n + 1))
    n = int(end / step + 1e-9)
    return tuple(i * step for i in range(n + 1))


def _print_table(table: ErrorTable) -> None:
    has_exact = any(row.exact is not None for row in table.rows)
    if has_exact:
        print(f"{'x':>6} {'exact':>24} {'approx':>24} {'abs_error':>14}")
        for row in table.rows:
            print(
                f"{row.x:>6.3f} {row.exact:>24.16e} {row.approx:>24.16e} "
                f"{row.abs_error:>14.6e}"
            )
        print(f"max abs error: {table.max_abs_error:.6e}")
    else:
        print(f"{'x':>6} {'approx':>24}")
        for row in table.rows:
            print(f"{row.x:>6.3f} {row.approx:>24.16e}")


def _unconverged(result: SolveResult) -> int:
    print(
        f"solver did not converge: residual {result.bc_residual_norm:.3e} "
        f"after {result.newton_iterations} iterations",
        file=sys.stderr,
    )
    return EXIT_SOLVER_FAILURE


def _run_solve(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    # two handles on one file would interleave their writes
    outputs = [os.path.abspath(p) for p in (args.emit_csv, args.emit_series) if p]
    if len(set(outputs)) < len(outputs):
        raise InvalidProblemError(["--emit-csv and --emit-series name the same file"])
    grid = _make_grid(spec.domain_end, args.grid_step)
    result = solve(spec)
    # everything that can still raise happens before the first print
    table = error_table(spec, result, grid)
    # both files are opened before either is written, so a bad second path
    # leaves no table behind in the first
    with contextlib.ExitStack() as files:
        table_out, series_out = (
            files.enter_context(open(path, "w", encoding="utf-8")) if path else None
            for path in (args.emit_csv, args.emit_series)
        )
        if table_out:
            emit_csv(table, table_out)
        if series_out:
            emit_series_csv(result.solution, series_out)

    degrees = spec.unknown_degrees()
    if degrees:
        print("solved constants:")
        for degree, value in zip(degrees, result.constants):
            print(f"  coefficient of x^{degree}: {value!r}")
    else:
        print("no free constants (all conditions at the origin)")
    print(f"newton iterations: {result.newton_iterations}")
    print(f"boundary residual sup-norm: {result.bc_residual_norm:.6e}")

    print("series coefficients:")
    for degree, c in enumerate(result.solution.coeffs):
        print(f"  x^{degree}: {c!r}")
    _print_table(table)
    return EXIT_OK if result.converged else _unconverged(result)


def _run_convergence(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    check_depth(spec, args.depth)
    result = solve(spec)
    if not result.converged:
        return _unconverged(result)
    report = analyze_convergence(
        spec, result.constants, depth=args.depth, grid=default_grid(spec)
    )
    print("correction sup-norms:")
    for k, d in enumerate(report.deltas):
        print(f"  delta_{k}: {d:.6e}")
    print("contraction ratio estimates:")
    for k, g in enumerate(report.gamma_estimates):
        print(f"  gamma_{k}: {g:.6e}")
    print(f"gamma_max: {report.gamma_max:.6e}")
    print(f"contraction_ok: {report.contraction_ok}")
    print(f"banach_bound_ok: {report.banach_bound_ok}")
    print(f"fixed_point_reached: {report.fixed_point_reached}")
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


if __name__ == "__main__":
    sys.exit(main())
