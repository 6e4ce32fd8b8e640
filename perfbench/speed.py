"""Machine-speed calibration, so timings from a shared host stay comparable.

On a host shared with other tenants the same interpreter-bound work can
take anywhere from 1x to 1.75x as long, in phases that last from seconds
to minutes. A fixed calibration loop, which imports nothing from swarmopt,
runs between units of measured work, and each unit's time is scaled by
NOMINAL_S over the loop times around it, which expresses it on a machine
where the loop takes NOMINAL_S. A change to swarmopt moves the scaled
figure as much as the raw one, since the loop does not run swarmopt code.
The raw seconds are printed alongside.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

NOMINAL_S = 0.040  # the loop's time on a quiet 2-vCPU host with numpy 2.4

clock = time.perf_counter

_POINTS = np.random.default_rng(0).uniform(-5.0, 5.0, size=(400, 2))


def calibration_loop() -> float:
    """Seconds to run a fixed mix of scalar math, small numpy ops and loops,
    the same kinds of work the optimizers spend their time on."""
    start = clock()
    total = 0.0
    for _ in range(12):
        for row in _POINTS:
            x, y = float(row[0]), float(row[1])
            total += math.cos(x) * math.exp(-abs(y)) + (x * x + y - 11.0) ** 2
            offsets = _POINTS[:8] - row
            total += float(np.sqrt(np.einsum("ij,ij->i", offsets, offsets)).sum())
    if not math.isfinite(total):
        raise RuntimeError("calibration loop went non-finite")
    return clock() - start


class SpeedTrack:
    """Calibration samples taken between units of work during one pass.

    `mark()` is called before each unit and returns the index of the sample
    that opens the unit's segment, taking a new sample first when at least
    `every` seconds passed since the last. `close()` takes the final sample.
    `scale(segment)` converts raw seconds in a segment to nominal-machine
    seconds by the mean of the samples that open and close it: the host's
    phases change within seconds, so the nearest samples track them best.

    A sample is the median of `loops` runs of the loop. One run varies by
    about 10% from the next, which matters where samples are few and far
    apart (one per sweep); where they are taken every half second, one run
    each keeps the time spent calibrating small.
    """

    def __init__(self, every: float = 0.5, loops: int = 1):
        self.every = every
        self.loops = loops
        self.samples = [self._sample()]
        self._last = clock()

    def _sample(self) -> float:
        return statistics.median(calibration_loop() for _ in range(self.loops))

    def mark(self) -> int:
        if clock() - self._last >= self.every:
            self.samples.append(self._sample())
            self._last = clock()
        return len(self.samples) - 1

    def close(self):
        self.samples.append(self._sample())

    def scale(self, segment: int) -> float:
        return NOMINAL_S / ((self.samples[segment] + self.samples[segment + 1]) / 2.0)
