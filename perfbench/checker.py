"""Independent checks of the program's answers.

Nothing here calls into ``vihpm``: the built-in solutions are evaluated with
this file's own Horner routine against closed forms written out below, and
the command-line output is re-read from its printed text.

An operation ends in one of three outcomes:

``OK``      the program reported success and the answer passed its check;
``FAILED``  the program reported failure itself (exit 2, another exit code,
            an exception, or a solve that did not converge);
``WRONG``   the program reported success but the answer failed its check.

``FAILED`` operations count in the failure ratio.  A ``WRONG`` operation is
a wrong answer, which makes the whole benchmark run incorrect.
"""

from __future__ import annotations

import math
import re
from typing import Sequence

OK = "ok"
FAILED = "failed"
WRONG = "wrong"

NEWTON_TOLERANCE = 1e-12
EPS = 2.0**-52
GRID = tuple(i / 10 for i in range(11))

# README values of the maximum error on 0(0.1)1 at W=12, k=1.
PAPER_MAX_ERRORS = {1: 2.5e-10, 2: 1.4e-11, 3: 9.6e-10, 4: 9.9e-11}
STRETCHED_MAX_ERROR = 1e-12

_EXACT = {
    1: lambda x: math.exp(x) * (x - x * x),
    2: lambda x: math.exp(x),
    3: lambda x: math.exp(x) * (x - x * x),
    4: lambda x: math.exp(x) * (1.0 - x),
}


def horner(coeffs: Sequence[float], x: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def derivative_terms(coeffs: Sequence[float], order: int, x: float) -> list[float]:
    """Terms ``c_k k!/(k-order)! x^(k-order)`` of the ``order``-th derivative."""
    terms = []
    for k in range(order, len(coeffs)):
        falling = math.prod(range(k - order + 1, k + 1))
        terms.append(coeffs[k] * falling * x ** (k - order))
    return terms


def max_grid_error(builtin: int, coeffs: Sequence[float]) -> float:
    exact = _EXACT[builtin]
    return max(abs(horner(coeffs, x) - exact(x)) for x in GRID)


def two_digits(value: float) -> float:
    return float(f"{value:.1e}")


def check_builtin(
    builtin: int, converged: bool, coeffs: Sequence[float], stretched: bool
) -> tuple[str, str]:
    """Outcome of one ``solve()`` of a built-in problem."""
    if not converged:
        return FAILED, f"builtin {builtin} did not converge"
    err = max_grid_error(builtin, coeffs)
    if stretched:
        if not err <= STRETCHED_MAX_ERROR:
            return WRONG, f"builtin {builtin}: max error {err:.3e} > {STRETCHED_MAX_ERROR:g}"
    elif two_digits(err) != PAPER_MAX_ERRORS[builtin]:
        return WRONG, (
            f"builtin {builtin}: max error {err:.3e} does not match "
            f"{PAPER_MAX_ERRORS[builtin]:.1e}"
        )
    return OK, ""


def off_origin_conditions(problem_text: str) -> list[tuple[float, int, float]]:
    """``(point, derivative order, value)`` of every ``bc`` line away from 0."""
    out = []
    for line in problem_text.splitlines():
        tokens = line.split("#", 1)[0].split()
        if tokens[:1] == ["bc"]:
            point, order, value = float(tokens[1]), int(tokens[2]), float(tokens[3])
            if point != 0.0:
                out.append((point, order, value))
    return out


_COEFF_LINE = re.compile(r"^\s+x\^(\d+): (\S+)$")


def printed_coefficients(stdout: str) -> list[float]:
    """The ``series coefficients:`` block of ``vihpm solve`` output."""
    lines = stdout.splitlines()
    start = lines.index("series coefficients:") + 1
    coeffs = []
    for line in lines[start:]:
        match = _COEFF_LINE.match(line)
        if match is None:
            break
        if int(match.group(1)) != len(coeffs):
            raise ValueError(f"coefficient out of order: {line!r}")
        coeffs.append(float(match.group(2)))
    if not coeffs:
        raise ValueError("no series coefficients printed")
    return coeffs


def check_solve_output(problem_text: str, stdout: str) -> str:
    """Empty string when the printed series meets every off-origin condition.

    The allowance is Newton's tolerance plus the round-off of evaluating the
    derivative: a few ulps of the sum of the absolute terms per term.
    """
    coeffs = printed_coefficients(stdout)
    if not all(math.isfinite(c) for c in coeffs):
        return "non-finite coefficient printed"
    for point, order, value in off_origin_conditions(problem_text):
        terms = derivative_terms(coeffs, order, point)
        defect = abs(math.fsum(terms) - value)
        allowance = NEWTON_TOLERANCE + 4 * len(coeffs) * EPS * (
            math.fsum(abs(t) for t in terms) + abs(value)
        )
        if not defect <= allowance:
            return (
                f"u^({order})({point}) misses {value!r} by {defect:.3e} "
                f"(allowed {allowance:.3e})"
            )
    return ""


_DELTA_LINE = re.compile(r"^  delta_(\d+): (\S+)$")
_GAMMA_LINE = re.compile(r"^  gamma_(\d+): (\S+)$")


def _matches(pattern: re.Pattern, stdout: str) -> list[float]:
    return [
        float(match.group(2))
        for match in map(pattern.match, stdout.splitlines())
        if match is not None
    ]


def _field(stdout: str, name: str) -> str:
    for line in stdout.splitlines():
        if line.startswith(name + ": "):
            return line.split(": ", 1)[1]
    raise ValueError(f"{name} not printed")


def check_convergence_output(stdout: str, depth: int) -> str:
    """Empty string when the printed diagnostics are mutually consistent.

    The ratios are recomputed from the printed 7-digit norms, so they agree
    with the printed ratios to about 1e-6 relative.
    """
    deltas = _matches(_DELTA_LINE, stdout)
    gammas = _matches(_GAMMA_LINE, stdout)
    gamma_max = float(_field(stdout, "gamma_max"))
    if len(deltas) != depth:
        return f"{len(deltas)} correction norms printed, expected {depth}"
    if not all(math.isfinite(d) and d >= 0.0 for d in deltas):
        return f"correction norms {deltas} not all finite and non-negative"
    expected = [deltas[k + 1] / deltas[k] for k in range(depth - 1) if deltas[k] > 0.0]
    if len(gammas) != len(expected) or not all(
        math.isclose(g, e, rel_tol=1e-5) for g, e in zip(gammas, expected)
    ):
        return f"ratios {gammas} do not follow from norms {deltas}"
    if gamma_max != max(gammas, default=0.0):
        return f"gamma_max {gamma_max} is not the largest ratio of {gammas}"
    contraction = _field(stdout, "contraction_ok") == "True"
    if abs(gamma_max - 1.0) > 1e-5 and contraction != (gamma_max < 1.0):
        return f"contraction_ok {contraction} contradicts gamma_max {gamma_max}"
    fixed_point = _field(stdout, "fixed_point_reached") == "True"
    if fixed_point != any(d == 0.0 for d in deltas):
        return f"fixed_point_reached {fixed_point} contradicts norms {deltas}"
    return ""


def classify_cli(
    command: str, exit_code: object, problem_text: str, stdout: str, depth: int
) -> tuple[str, str]:
    """Outcome of one ``vihpm.cli.main`` call on a generated problem.

    ``exit_code`` is the integer the call returned, or the name of the
    exception it raised.
    """
    if exit_code != 0:
        return FAILED, f"exit {exit_code}"
    try:
        if command == "solve":
            problem = check_solve_output(problem_text, stdout)
        else:
            problem = check_convergence_output(stdout, depth)
    except ValueError as exc:
        problem = f"unreadable output: {exc}"
    return (WRONG, problem) if problem else (OK, "")
