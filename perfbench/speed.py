"""Machine-speed calibration for timing on a shared host.

On the small shared sandboxes this benchmark runs on, other tenants slow
the same code by up to 2x, in stretches that last from seconds to
minutes; no statistic over one 30-second run removes that.  So the run
times a fixed numpy kernel, which does not touch macfluid, before and
after every episode and set-up, and scales each measured time by
``REFERENCE_MS / kernel time`` around it.  The gated metrics are these
times at reference speed; the raw times are reported next to them.

The kernel mixes the two kinds of work the workloads do: whole-array
arithmetic and gathers on a 128x128 grid, and a loop of small-array numpy
calls where per-call overhead dominates, as in the PCG wavefront sweeps.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Sets only the scale: a time at reference speed is what the measurement
# would read on a machine where the kernel takes this long.  On a 2-core
# x86-64 sandbox (Python 3.11, numpy 2.4) the kernel takes 3.5-8 ms,
# depending on the load and on what ran just before it.
REFERENCE_MS = 5.0


class Calibrator:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._grid = rng.random((128, 128))
        self._idx = rng.integers(0, self._grid.size, self._grid.size)
        self._small = self._grid[:32, :32].ravel()
        self._small_idx = self._idx[:1024] % 1024

    def _kernel_ms(self) -> float:
        t0 = time.perf_counter()
        a = self._grid
        for _ in range(6):
            b = np.where(a > 0.5, a * 1.01, a * 0.99)
            p = np.pad(b, 1)
            a = 0.25 * (p[1:-1, :-2] + p[1:-1, 2:] + p[:-2, 1:-1] + p[2:, 1:-1])
            a = 0.5 * (a + a.ravel()[self._idx].reshape(a.shape))
        for _ in range(300):
            np.where(self._small > 0.5, self._small[self._small_idx], 0.0)
        return (time.perf_counter() - t0) * 1e3

    def kernel_ms(self) -> float:
        """Median of three kernel timings."""
        return statistics.median(self._kernel_ms() for _ in range(3))


def speed_factor(before_ms: float, after_ms: float) -> float:
    """Scale from a time measured between two kernel timings to reference speed."""
    return REFERENCE_MS / (0.5 * (before_ms + after_ms))
