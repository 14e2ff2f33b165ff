"""A fixed calibration kernel that measures how fast the machine runs right now.

On a shared host the speed of one vCPU can change by up to 1.8x for minutes
at a time, so a wall-clock latency says as much about the neighbours as about
the library.  The worker times this kernel every PROBE_INTERVAL_S between
ops and scales each op's latency by REFERENCE_S / (the kernel's time around
that op): the result is the op's latency on a machine where the kernel takes
REFERENCE_S, which is about what it takes on a 2-vCPU cloud VM at its usual
speed.

The kernel uses the standard library only, never the library under test, so
no change to the library can move it.  It mixes what the library's hot paths
do (Fraction and big-integer arithmetic, tuple building, dict and bit
operations); do not change it, or figures before and after stop comparing.
"""

from __future__ import annotations

import statistics
import time
from bisect import bisect_left
from fractions import Fraction

REFERENCE_S = 5e-4
PROBE_INTERVAL_S = 0.05
NEAREST = 7


def kernel() -> int:
    acc = Fraction(0)
    big = 1
    table: dict[int, tuple] = {}
    for i in range(1, 81):
        acc += Fraction(i, 2 * i + 1)
        big = big * (i + 7) + (big >> 3)
        row = tuple((big >> k) & 0xFF for k in range(0, 64, 8))
        table[i ^ (big & 0x3FF)] = row
    mask = 0
    for key in sorted(table):
        mask |= 1 << (key % 61)
    return acc.numerator % 1009 + mask.bit_count() + len(table)


def probe(repeats: int) -> float:
    """Seconds the kernel takes, the fastest of `repeats` back-to-back runs."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class SpeedTrack:
    """Kernel timings taken every PROBE_INTERVAL_S while ops run."""

    def __init__(self):
        self.at: list[float] = []
        self.seconds: list[float] = []
        self.spent = 0.0

    def sample(self) -> None:
        t0 = time.perf_counter()
        self.seconds.append(probe(3))
        self.at.append(t0)
        self.spent += time.perf_counter() - t0

    def maybe_sample(self) -> None:
        if not self.at or time.perf_counter() - self.at[-1] >= PROBE_INTERVAL_S:
            self.sample()

    def factor(self, t: float) -> float:
        """REFERENCE_S over the median kernel time of the NEAREST probes to
        time t."""
        i = bisect_left(self.at, t)
        lo, hi = max(0, i - NEAREST // 2), min(len(self.at), i + NEAREST // 2 + 1)
        return REFERENCE_S / statistics.median(self.seconds[lo:hi])
