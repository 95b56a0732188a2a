"""Machine-speed calibration: a fixed kernel timed beside every measurement.

The sandbox is a two-core guest of a shared host.  Its speed drifts by
+-10 % from one half minute to the next and, when a neighbour is busy, drops
to less than half for a minute at a time (measured: the same numpy kernel
took 150 ms, then 380 ms for 45 s, then 150 ms again, with nothing else
running in the guest).  A run that falls into such a stretch is slow from
end to end, so no statistic over the run's own repeats removes it, and two
slow runs in ten are enough to push a quartile spread past 25 %.

What does remove it is timing a fixed piece of work right before and right
after each measured operation and reporting the operation's time *at the
reference machine speed*:

    seconds_at_reference = wall * REFERENCE_S / (kernel seconds beside it)

The kernel does what the program's hot paths do - sort / unique /
searchsorted over int64 arrays, an interpreter loop, dict inserts - in about
33 ms, so a slow-down that hits the program hits the kernel by about the
same factor.  Over ten minutes of back-to-back ``pointer-matmul`` closures,
cut into 30 s runs, the quartile spread of the runs' medians was 7.3 % raw
and 2.6 % at reference speed (range 27 % against 8 %).

The kernel and ``REFERENCE_S`` are part of the benchmark's definition: a
change to either changes every time metric, on both sides of a comparison.
"""

from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np

#: Kernel seconds on this sandbox when the host is quiet; scales a
#: calibrated time back into seconds a user of a quiet sandbox would see.
REFERENCE_S = 0.0330

_RNG = np.random.default_rng(20170408)
_KEYS = _RNG.integers(0, 1 << 40, 120_000)
_SORTED = np.sort(_RNG.integers(0, 1 << 40, 120_000))


def kernel_seconds() -> float:
    """Time one pass of the fixed kernel."""
    started = time.perf_counter()
    unique = np.unique(_KEYS)
    np.searchsorted(_SORTED, unique)
    total = 0
    for i in range(30_000):
        total += i * i
    table = {}
    for i in range(10_000):
        table[i] = i
    return time.perf_counter() - started


class Calibrator:
    """Kernel timings taken between operations; scales the operations' times."""

    def __init__(self) -> None:
        kernel_seconds()  # the first pass pays for page faults and cold caches
        self.samples: List[float] = [kernel_seconds()]

    def at_reference(self, seconds: float) -> float:
        """``seconds`` that have just elapsed, at the reference machine speed.

        Scaled by the mean of the kernel timing taken before them (the
        latest) and one taken now, which the next call starts from.
        """
        before = self.samples[-1]
        self.samples.append(kernel_seconds())
        return seconds * REFERENCE_S / ((before + self.samples[-1]) / 2)

    def mean_speed(self) -> float:
        """Machine speed over every timing so far, 1.0 being the reference."""
        return REFERENCE_S / statistics.fmean(self.samples)

    def median_speed(self) -> float:
        return REFERENCE_S / statistics.median(self.samples)
