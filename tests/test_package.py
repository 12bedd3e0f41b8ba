"""Top-level package surface: only what the tests and the CLI need."""

import subprocess
import sys
import textwrap
from pathlib import Path

import vihpm


def test_top_level_surface_is_pinned():
    assert sorted(vihpm.__all__) == ["__version__", "builtin", "solve", "with_settings"]
    for name in vihpm.__all__:
        getattr(vihpm, name)

    from vihpm import builtin, solve, with_settings

    assert solve(with_settings(builtin(1), truncation=12, iterations=1)).converged


def test_cli_loads_only_the_standard_library():
    # a fresh interpreter, so modules the test run already loaded still count;
    # the snapshot leaves out what site hooks load at startup
    script = textwrap.dedent(
        """
        import contextlib, io, sys
        before = set(sys.modules)
        import vihpm.cli
        with contextlib.redirect_stdout(io.StringIO()):
            assert vihpm.cli.main(["solve", "--builtin", "1"]) == 0
        loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
        print(" ".join(sorted(loaded - {"vihpm"} - sys.stdlib_module_names)))
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


def test_cli_imports_no_dataclass_machinery():
    # -S leaves out site hooks, so only the interpreter's own start-up and
    # vihpm's imports can load these; dataclasses and inspect cost ~10 ms
    # of every start
    src = str(Path(vihpm.__file__).resolve().parent.parent)
    script = (
        f"import sys; sys.path.insert(0, {src!r}); import vihpm.cli; "
        "print(' '.join(sorted({'dataclasses', 'inspect'} & set(sys.modules))))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""
