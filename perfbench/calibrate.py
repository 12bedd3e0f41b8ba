"""A fixed kernel that measures how fast the machine runs right now.

The benchmark runs on shared machines whose speed drifts by tens of percent
between runs, and a drift that size would hide any change worth detecting.
This kernel does the kind of work ``vihpm`` spends its time on (frozen
dataclass construction with per-coefficient validation, tuple building and a
truncated Cauchy product) but with the benchmark's own code, so no change to
the program can change it.  ``run.py`` times it between operations and scales
every reported time to a machine on which one kernel takes
``REFERENCE_KERNEL_MS``; raw wall-clock values are printed alongside.

The speed of a shared machine also swings within one run: in one process
running ``paper`` for 60 s, the median solve time of one-second blocks ranged
from 2.4 ms to 4.2 ms, and the kernel's median in the same blocks followed it
with a correlation of 0.97.  So each operation is scaled by the kernel's
median over the samples around it (:meth:`Speed.factors`), not by one factor
for the whole run.  In that experiment this cut the spread of the block
medians (standard deviation of their logarithm) from 0.17 to 0.05.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass

REFERENCE_KERNEL_MS = 0.5
SAMPLE_INTERVAL_S = 0.05
# samples on each side of an operation that set its scale: about 0.5 s
WINDOW_SAMPLES = 10


@dataclass(frozen=True)
class _Coeffs:
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        values = tuple(float(v) for v in self.values)
        if not all(math.isfinite(v) for v in values):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "values", values)


def _product(f: _Coeffs, g: _Coeffs) -> _Coeffs:
    n = len(f.values)
    out = [0.0] * n
    for i, a in enumerate(f.values):
        for j in range(n - i):
            out[i + j] += a * g.values[j]
    return _Coeffs(tuple(out))


def kernel_seconds() -> float:
    """Wall time of one run of the kernel."""
    start = time.perf_counter()
    f = _Coeffs(tuple(1.0 / (i + 1) for i in range(20)))
    for _ in range(12):
        g = _product(f, f)
        f = _Coeffs(tuple(a - 0.5 * b for a, b in zip(f.values, g.values)))
    return time.perf_counter() - start


class Speed:
    """Kernel samples taken at most every ``SAMPLE_INTERVAL_S`` seconds."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._last = -math.inf

    def maybe_sample(self) -> None:
        now = time.perf_counter()
        if now - self._last >= SAMPLE_INTERVAL_S:
            self.samples.append(kernel_seconds())
            self._last = time.perf_counter()
            self.spent += self._last - now

    def scale(self) -> float:
        """Factor that turns a time measured during the run into reference
        time, from the median of all samples."""
        return reference_factor(self.samples)

    def factors(self) -> list[float]:
        """``factors()[j]`` scales a time measured after ``j`` samples had
        been taken, from the median of the samples around it."""
        return [
            reference_factor(
                self.samples[max(0, j - WINDOW_SAMPLES) : j + WINDOW_SAMPLES]
            )
            for j in range(len(self.samples) + 1)
        ]


def reference_factor(samples: list[float]) -> float:
    """Factor that turns a time measured alongside kernel ``samples`` (in
    seconds) into reference time."""
    return REFERENCE_KERNEL_MS / (statistics.median(samples) * 1e3)
