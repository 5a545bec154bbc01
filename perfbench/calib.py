"""Host-speed calibration: a fixed NumPy + zlib kernel timed in the run.

The machine this benchmark runs on is shared, and its speed drifts by
tens of per cent over minutes.  Each run therefore times a fixed kernel
that does not touch the program under test, in the same process and
the same minutes as its measurement, and ``run.py`` scales the timings
its workload names to the kernel's reference speed.  Because the kernel
never calls the program, a change to the program moves the scaled
figures exactly as it moves the raw ones.
"""

from __future__ import annotations

import time
import zlib

import numpy as np

from stats import median

__all__ = ["REF_KERNEL_S", "CLOCK_SAMPLES", "HostClock"]

#: Median seconds of one kernel run on the reference host state (the
#: machine described in WORKLOADS.md at its usual speed).
REF_KERNEL_S = 0.015

#: Kernel runs per reading where a workload reads the clock in bursts.
CLOCK_SAMPLES = 8


class HostClock:
    """Times the calibration kernel; :meth:`slowness` is how many times
    longer it took here than on the reference host."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20181010)
        self._x = rng.standard_normal(25_000)
        self.samples = []

    def _kernel(self) -> None:
        y = np.cumsum(self._x)
        q = np.round(y * 50.0).astype(np.int64)
        d = np.diff(q)
        np.bincount(d - d.min())
        s = np.sort(q)
        np.searchsorted(s, q[::3])
        zlib.compress(d.astype(np.int32).tobytes(), 6)

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            t0 = time.perf_counter()
            self._kernel()
            self.samples.append(time.perf_counter() - t0)

    def slowness(self) -> float:
        return median(self.samples) / REF_KERNEL_S
