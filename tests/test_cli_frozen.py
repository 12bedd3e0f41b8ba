"""The command-line output of the built-in problems and of one generated
problem, frozen byte for byte.

Each entry of ``data/cli_outputs.json`` is the SHA-256 of one
:func:`vihpm.cli.main` run: its exit code, stdout and stderr, serialized
by :func:`record_digest`.  The runs cover builtins 1-4 with ``solve``,
``convergence --depth 4`` and ``convergence --depth 6`` at (W=12, k=1) and
(W=30, k=3), depths above the solve's k, with ``convergence --depth 2``
at (W=30, k=3), a depth below it, and with ``solve`` at (W=60, k=4).
``convergence --depth 4`` continues from the solve's last iterate, and
``--depth 2`` reads a prefix of the solve's iterates.  Besides the solved
constants and coefficients, which ``data/solve_bits.json`` pins too, they
pin the printed error tables and convergence reports.  The digests were
recorded before the Newton pass stopped rebuilding its spec-constant
tables (the depth-2 runs before ``convergence`` reused the solve's
iterates, the (W=60, k=4) runs before the product had kernels), and hold
on CPython 3.10-3.13.
Each run is repeated with the builtin's problem text written to a file and
named in place of ``--builtin N``, and must print the same bytes.

These runs are the commands of README.md's "Reproducing the benchmark
tables" (``solve`` and ``convergence --depth 4`` at the default (W=12,
k=1); ``--emit-csv`` changes no printed byte, and ``test_cli.py`` checks
the file it writes) and the same commands at (W=30, k=3), where the
initial polynomial and the tangent seeds pass through several
corrections.  Every ring of the (W=30, k=3) runs, 31 to 52 coefficients,
is at most ``KERNEL_CAP`` long, so they run generated code throughout.
The (W=60, k=4) iterates hold 61, 68, 75, 82 and 89 coefficients, on
both sides of the cap.  In ring 61 the dense products of builtin 2, the
two-row products of builtins 1, 3 and 4 by their constant coefficients,
the sums, the derivatives and the Picard steps run generated code; in
rings 68-89 each kind's table (:class:`vihpm.series._Generated`) gives
the loop it was declared with, whose result a product returns unchecked.
Every derivative value is taken in ring 89, so it runs its loop, Horner's
rule on the coefficients times their falling factorials; the (W=30, k=3)
solves take theirs in generated code.  The (W=60, k=4) runs are made a
second time through ``python -m vihpm`` in a new interpreter, where
every kernel they use is compiled during the run.

The builtins' operator coefficients are constants.  ``solve/linear/W``
runs ``data/linear_coefficient.txt`` at ``--truncation W``: a fourth-order
shooting problem drawn by ``perfbench/genproblems.py`` (``generate(1)``'s
p0034) with a constant and a linear coefficient, whose products
:func:`vihpm.series.mul` hands to the generated two-row product at W=20
and to the row loop at W=70, above the cap.  Its digests were recorded
before the two-row product existed.
"""

import contextlib
import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from vihpm.cli import main
from vihpm.problems import _BUILTINS

DATA = Path(__file__).parent / "data"
CLI_OUTPUTS = json.loads((DATA / "cli_outputs.json").read_text())
LINEAR_COEFFICIENT = DATA / "linear_coefficient.txt"
BUILTIN_CASES = sorted(case for case in CLI_OUTPUTS if case.split("/")[1] != "linear")

COMMANDS = {
    "solve": ["solve"],
    "convergence-2": ["convergence", "--depth", "2"],
    "convergence-4": ["convergence", "--depth", "4"],
    "convergence-6": ["convergence", "--depth", "6"],
}
SETTINGS = {"12-1": ("12", "1"), "30-3": ("30", "3"), "60-4": ("60", "4")}
# depth 2 is recorded at k = 3 only, the setting where it is below k, and
# the long rings of (W=60, k=4) with solve alone
RECORDED_SETTINGS = {
    "solve": ("12-1", "30-3", "60-4"),
    "convergence-2": ("30-3",),
    "convergence-4": ("12-1", "30-3"),
    "convergence-6": ("12-1", "30-3"),
}


def argv_of(case, source=None):
    """``"<command>/<builtin>/<W>-<k>"`` as the argument list of one run,
    which reads the problem from the file ``source`` if one is given;
    ``"solve/linear/<W>"`` as the run of ``LINEAR_COEFFICIENT`` at W."""
    command, n, setting = case.split("/")
    if n == "linear":
        return COMMANDS[command] + [str(LINEAR_COEFFICIENT), "--truncation", setting]
    truncation, iterations = SETTINGS[setting]
    return COMMANDS[command] + ([source] if source else ["--builtin", n]) + [
        "--truncation", truncation, "--iterations", iterations,
    ]


def record_digest(code, out, err):
    """SHA-256 of ``[exit code, stdout, stderr]`` as JSON."""
    record = json.dumps([code, out, err])
    return hashlib.sha256(record.encode("utf-8")).hexdigest()


def digest(argv):
    """:func:`record_digest` of one main() run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return record_digest(code, out.getvalue(), err.getvalue())


def test_every_run_is_recorded():
    assert sorted(CLI_OUTPUTS) == sorted([
        f"{command}/{n}/{setting}"
        for command in COMMANDS
        for n in "1234"
        for setting in RECORDED_SETTINGS[command]
    ] + ["solve/linear/20", "solve/linear/70"])


@pytest.mark.parametrize("case", sorted(CLI_OUTPUTS))
def test_cli_output_frozen(case):
    assert digest(argv_of(case)) == CLI_OUTPUTS[case]


@pytest.mark.parametrize("case", BUILTIN_CASES)
def test_cli_output_frozen_from_the_builtin_text(case, tmp_path):
    # the builtin's own text as a problem file prints the same bytes
    n = int(case.split("/")[1])
    path = tmp_path / f"builtin-{n}.txt"
    path.write_text(_BUILTINS[n - 1], encoding="utf-8")
    assert digest(argv_of(case, str(path))) == CLI_OUTPUTS[case]


@pytest.mark.parametrize("case", [f"solve/{n}/60-4" for n in "1234"])
def test_cli_output_frozen_in_a_fresh_process(case):
    # no kernel of the run is compiled before it starts
    proc = subprocess.run(
        [sys.executable, "-m", "vihpm", *argv_of(case)], capture_output=True, timeout=60
    )
    code, out, err = proc.returncode, proc.stdout.decode(), proc.stderr.decode()
    assert record_digest(code, out, err) == CLI_OUTPUTS[case]
