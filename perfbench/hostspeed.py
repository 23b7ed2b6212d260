"""Host-speed calibration for the benchmark's timings.

On a shared host the same work can run 1.5 times slower for a minute at a
time, and CPU time slows as much as wall time, so a 20-second run cannot
average the slow phases out.  The benchmark therefore times a fixed
kernel, written here and sharing no code with qslreach, between
consecutive commands, and scales each command's wall time by
``REFERENCE_S / (mean of the kernel times around it)``.  A program change
moves the command time and not the kernel, so it shows in full; a slower
host moves both and cancels.

The kernel mixes the operations qslreach spends its time on: small
complex matrix products through numpy, scalar math and float formatting
in the interpreter.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

#: Median kernel time on the reference host, a 2-core x86-64 VM
#: (Python 3.11, numpy 2.4, one BLAS thread) in an uncontended phase.
REFERENCE_S = 0.013
REPEATS = 5


def kernel(n: int = 2000) -> float:
    a = np.full((4, 4), 0.01 + 0.02j)
    rho = np.eye(4, dtype=complex) / 4
    acc, parts = 0.0, []
    for i in range(n):
        rho = rho + 1e-3 * (a @ rho - rho @ a)
        x = math.sqrt(1.0 + i * 1e-6)
        acc += math.log1p(x)
        parts.append(f"{x:.9g}")
    return acc + len("".join(parts)) + float(rho[0, 0].real)


def sample() -> float:
    """Median time of ``REPEATS`` kernel runs, in seconds."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Clock:
    """Times calls and scales them to the reference host speed."""

    def __init__(self):
        self.last = sample()
        self.samples = [self.last]

    def timed(self, fn, *args):
        """Return ``(result, wall_s, factor)`` for ``fn(*args)``, where a
        time taken during the call times ``factor`` is its reference-host
        equivalent."""
        t0 = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - t0
        before, self.last = self.last, sample()
        self.samples.append(self.last)
        return result, wall, REFERENCE_S / ((before + self.last) / 2)
