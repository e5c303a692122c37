"""Host speed, measured with a fixed reference kernel run between ops.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over minutes; CPU time drifts with wall time, so the drift
is in the processor, not in waiting.  A pass runs one reference unit after
every ``SHARE`` of op time, in the same process, outside the timed ops.  The
end-to-end rates and costs are then given in reference seconds: op time
scaled by REF_UNIT_S over the unit's mean time during the pass, which is
what the op would have taken with the host at its reference speed.  On
this host that halves the run-to-run spread of op rates (BASELINE.md).

The unit mixes the two kinds of work the workloads do: interpreted Python
arithmetic and numpy calls on small arrays.  It calls nothing in gaussesd,
so a change to the program moves the scaled metrics and not the unit.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Median wall time of one unit on the baseline host (BASELINE.md), so that
# reference seconds read close to seconds there.
REF_UNIT_S = 0.010
# Reference time run per second of op time.
SHARE = 0.1
PY_ITERS = 60_000
NP_ITERS = 800
_M = np.array([[1.0, 0.2, 0.1, 0.0],
               [0.2, 1.3, 0.0, 0.1],
               [0.1, 0.0, 1.1, 0.3],
               [0.0, 0.1, 0.3, 1.2]])


def unit() -> float:
    """One reference unit of work; returns its result so none is skipped."""
    s = 0
    for i in range(PY_ITERS):
        s += i * i % 7
    x = 0.0
    for i in range(NP_ITERS):
        b = _M * (1.0 + 1e-3 * i)
        x += float(np.linalg.det(b)) + math.exp(-float(b[0, 0])) + float(b.sum())
    return s + x


class HostSpeed:
    """Reference units interleaved with the ops of one pass."""

    def __init__(self):
        unit()  # first-call set-up stays out of the measurement
        self.units = 0
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self._owed_s = 0.0

    def after_op(self, op_s: float) -> None:
        """Run the reference units owed for ``op_s`` seconds of op time."""
        self._owed_s += SHARE * op_s
        while self._owed_s > 0.0:
            c0 = time.process_time()
            t0 = time.perf_counter()
            unit()
            wall = time.perf_counter() - t0
            self.cpu_s += time.process_time() - c0
            self.wall_s += wall
            self.units += 1
            self._owed_s -= wall

    def unit_s(self) -> float:
        """Mean wall time of a unit over the pass."""
        return self.wall_s / self.units

    def wall_scale(self) -> float:
        """Reference seconds per wall second over the pass."""
        return REF_UNIT_S / self.unit_s()

    def cpu_scale(self) -> float:
        """Reference seconds per CPU second over the pass."""
        return REF_UNIT_S / (self.cpu_s / self.units)
