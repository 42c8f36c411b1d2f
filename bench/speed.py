"""Machine speed probe, sampled around and between timed operations.

On a shared machine the speed available to one process drifts by tens of
percent within seconds to minutes, so raw wall times of the same pass differ
from run to run far more than the benchmark's bounds. A fixed pure-Python
loop (dict updates, float arithmetic, string formatting and splitting, the
kind of work the package does) slows down with the machine. It runs just
before and just after each timed pass or set-up, and between the operations
of a pass (never inside one). A pass's or an operation's time is scaled by
``NOMINAL_S / mean probe time`` over the samples taken during it and right
next to it: seconds at the speed the probe has on an unloaded machine. The
probe never calls the package, so a change to the package moves the scaled
time as it moves the raw one.
"""

from __future__ import annotations

import statistics
import time
from typing import List

AROUND = 3  # probe runs just before and just after each pass or set-up
NEAR_S = 0.25  # samples this close to an interval's ends count for it
NOMINAL_S = 0.022  # the probe loop's time on a 2-core x86-64 VM with no other load, Python 3.11


def _loop() -> int:
    d = {}
    for i in range(120_000):
        k = i % 4099
        d[k] = d.get(k, 0.0) + i * 0.5
    text = ",".join(f"{v:.3f}" for v in d.values())
    return len(text.split(","))


class Probe:
    """Probe loop times collected over one phase of a run."""

    def __init__(self):
        self.times: List[float] = []
        self.at: List[float] = []  # perf_counter() midpoint of each sample

    def sample(self, runs: int = 1) -> float:
        """Run the loop ``runs`` times; returns the seconds this took."""
        t_start = time.perf_counter()
        for _ in range(runs):
            t0 = time.perf_counter()
            _loop()
            t1 = time.perf_counter()
            self.times.append(t1 - t0)
            self.at.append(0.5 * (t0 + t1))
        return time.perf_counter() - t_start

    def scale(self, start: float, end: float) -> float:
        """Factor that turns the wall time from ``start`` to ``end``
        (perf_counter values) into seconds at nominal machine speed. The
        load flips between a fast and a slow state; a mean over the samples
        follows the share of time spent in each, where a median would jump
        between them."""
        near = [t for t, at in zip(self.times, self.at) if start - NEAR_S <= at <= end + NEAR_S]
        if not near:  # a long operation with no sample close by: the two nearest
            distance = [min(abs(at - start), abs(at - end)) for at in self.at]
            near = [t for _, t in sorted(zip(distance, self.times))[:2]]
        return NOMINAL_S / statistics.fmean(near)
