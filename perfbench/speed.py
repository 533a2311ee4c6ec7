"""The machine's speed around each op, from a fixed reference computation.

The benchmark runs on a shared machine whose speed drifts by 15-25 % over
seconds to minutes. The drift is shared by whatever runs at that moment, so
between ops the benchmark times a fixed reference computation of its own, a
small mix of the program's kinds of work: numpy broadcasts over all pairs of
2^11 masks, a JSON round trip of a 2^11-row document, and a Python dict loop.
An op's time in reference seconds is its wall time scaled by
``NOMINAL_S / r``, where ``r`` is the median reference time within
``WINDOW_S`` of the op. The reference is the benchmark's own code, so a
change to the program moves reference seconds as it moves wall time.
"""

from __future__ import annotations

import json
import statistics
import time
from bisect import bisect_left, bisect_right

import numpy as np

EVERY_S = 0.5  # wall time between two reference timings
WINDOW_S = 5.0  # an op is scaled by the reference timings this close to its start
NOMINAL_S = 0.02  # a reference second: the reference's time on the machine in RESULTS.md, rounded


class Speedometer:
    def __init__(self) -> None:
        self._masks = np.random.default_rng(0).integers(0, 1 << 11, 1 << 11)
        self._doc = [
            {"menu": [f"e{i:02d}" for i in range(k % 11)], "choice": [f"e{i:02d}" for i in range(k % 5)]}
            for k in range(1 << 11)
        ]
        self.times: list[float] = []  # perf_counter at each reference timing
        self.seconds: list[float] = []  # how long each took

    def reference(self) -> float:
        start = time.perf_counter()
        a = self._masks
        for row in range(0, len(a), 512):
            int(((a[row : row + 512, None] & a[None, :]) == a[None, :]).sum())
        json.loads(json.dumps(self._doc))
        d: dict[int, int] = {}
        for i in range(20000):
            d[i & 1023] = d.get(i & 1023, 0) + i
        return time.perf_counter() - start

    def sample(self) -> None:
        """Time the reference if ``EVERY_S`` has passed since the last time."""
        now = time.perf_counter()
        if not self.times or now - self.times[-1] >= EVERY_S:
            self.seconds.append(self.reference())
            self.times.append(now)

    def scale(self, at: float) -> float:
        """Reference seconds per wall second around perf_counter time ``at``."""
        lo = bisect_left(self.times, at - WINDOW_S)
        hi = bisect_right(self.times, at + WINDOW_S)
        near = self.seconds[lo:hi] or self.seconds
        return NOMINAL_S / statistics.median(near)
