"""How fast the machine runs right now, from a fixed reference kernel.

On a shared host the same code runs up to 40% faster or slower from one
15-second stretch to the next: on the 2-core reference machine,
``lipschitz-audit`` ranged over 1074-1954 pairs/s across 15-second windows
of one process.  Such drift would swamp any useful bound, so the benchmark
reports its times and rates at a nominal machine speed: a run's median
rate is divided, and its median set-up time multiplied, by the median of
the speed factors measured during it.  A speed factor is the rate the
reference kernel reaches at that moment over its nominal rate.  The
kernel uses only Python and numpy, never bwgan, so no change to the
program moves it.
"""

from __future__ import annotations

from time import perf_counter

# Rate of the kernel below, in kernel calls per second, at a typical
# moment of the 2-core reference machine (Python 3.11, numpy 2.4).
NOMINAL_RATE = 600.0
REPEATS = 2


class NumpySpeed:
    """Speed factor from small matmuls, elementwise numpy calls and an
    interpreter loop, the mix the workloads spend their time on."""

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self._np = np
        self._a = rng.random((64, 128))
        self._b = rng.random((128, 128))
        self()  # first call pays one-time allocation costs

    def _kernel(self):
        np, a, b = self._np, self._a, self._b
        total = 0.0
        for _ in range(25):
            total += float(np.maximum(a @ b, 0.5).sum())
            for i in range(100):
                total += i
        return total

    def __call__(self) -> float:
        best = float("inf")
        for _ in range(REPEATS):
            t0 = perf_counter()
            self._kernel()
            best = min(best, perf_counter() - t0)
        return 1.0 / best / NOMINAL_RATE
