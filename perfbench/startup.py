"""What a user pays before the first operation, timed in a fresh interpreter.

Run as ``python3 perfbench/startup.py <src dir> <workload>``: prints the
seconds from just before the first import of ``vihpm`` until the first
operation of the workload could start.  Interpreter start-up is excluded, and this file imports nothing that
``vihpm`` would otherwise import first, so none of the program's import
cost is hidden.
"""

import importlib
import sys
import time

SETTINGS = {"paper": (12, 1), "stretched": (30, 3)}
BUILTINS = (1, 2, 3, 4)


def setup(name: str) -> object:
    """Import the program and build what the first operation needs."""
    if name == "family":
        return importlib.import_module("vihpm.cli")
    vihpm = importlib.import_module("vihpm")
    truncation, iterations = SETTINGS[name]
    return {
        n: vihpm.with_settings(
            vihpm.builtin(n), truncation=truncation, iterations=iterations
        )
        for n in BUILTINS
    }


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    start = time.perf_counter()
    setup(sys.argv[2])
    print(repr(time.perf_counter() - start))
