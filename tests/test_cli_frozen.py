"""The built-in problems' command-line output, frozen byte for byte.

Each entry of ``data/cli_outputs.json`` is the SHA-256 of one
:func:`vihpm.cli.main` run: its exit code, stdout and stderr, serialized
by :func:`digest`.  The runs cover builtins 1-4 with ``solve``,
``convergence --depth 4`` and ``convergence --depth 6`` at (W=12, k=1) and
(W=30, k=3), depths above the solve's k, and with ``convergence --depth 2``
at (W=30, k=3), a depth below it.  Besides the solved constants and
coefficients, which ``data/solve_bits.json`` pins too, they pin the printed
error tables and convergence reports.  The digests were recorded before the Newton pass
stopped rebuilding its spec-constant tables (the depth-2 runs before
``convergence`` reused the solve's iterates), and hold on CPython 3.10-3.13.
Each run is repeated with the builtin's problem text written to a file and
named in place of ``--builtin N``, and must print the same bytes.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from vihpm.cli import main
from vihpm.problems import _BUILTINS

CLI_OUTPUTS = json.loads(
    (Path(__file__).parent / "data" / "cli_outputs.json").read_text()
)

COMMANDS = {
    "solve": ["solve"],
    "convergence-2": ["convergence", "--depth", "2"],
    "convergence-4": ["convergence", "--depth", "4"],
    "convergence-6": ["convergence", "--depth", "6"],
}
SETTINGS = {"12-1": ("12", "1"), "30-3": ("30", "3")}
# depth 2 is recorded at k = 3 only, the setting where it is below k
RECORDED_SETTINGS = {"convergence-2": ("30-3",)}


def argv_of(case, source=None):
    """``"<command>/<builtin>/<W>-<k>"`` as the argument list of one run,
    which reads the problem from the file ``source`` if one is given."""
    command, n, setting = case.split("/")
    truncation, iterations = SETTINGS[setting]
    return COMMANDS[command] + ([source] if source else ["--builtin", n]) + [
        "--truncation", truncation, "--iterations", iterations,
    ]


def digest(argv):
    """SHA-256 of ``[exit code, stdout, stderr]`` as JSON, of one main() run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    record = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(record.encode("utf-8")).hexdigest()


def test_every_run_is_recorded():
    assert sorted(CLI_OUTPUTS) == sorted(
        f"{command}/{n}/{setting}"
        for command in COMMANDS
        for n in "1234"
        for setting in RECORDED_SETTINGS.get(command, SETTINGS)
    )


@pytest.mark.parametrize("case", sorted(CLI_OUTPUTS))
def test_cli_output_frozen(case):
    assert digest(argv_of(case)) == CLI_OUTPUTS[case]


@pytest.mark.parametrize("case", sorted(CLI_OUTPUTS))
def test_cli_output_frozen_from_the_builtin_text(case, tmp_path):
    # the builtin's own text as a problem file prints the same bytes
    n = int(case.split("/")[1])
    path = tmp_path / f"builtin-{n}.txt"
    path.write_text(_BUILTINS[n - 1], encoding="utf-8")
    assert digest(argv_of(case, str(path))) == CLI_OUTPUTS[case]
