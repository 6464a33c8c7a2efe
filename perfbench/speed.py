"""Sample how fast the host runs the measuring process, during each phase.

The benchmark's host is shared: for seconds to minutes at a time it runs
Python code up to about 1.6x slower, on one of its CPUs or the other.  A
repetition therefore times a short fixed loop every ``INTERVAL_S`` from a
``SIGALRM`` handler in its own process, so the samples come from the CPU
the program runs on at that moment.  ``run.py`` scales each phase's times
by the reference loop time over the phase's mean sample (README.md shows
what that buys).  The time spent sampling is left out of every interval
read from :meth:`SpeedSampler.clock`.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time
from typing import Iterator, List, Tuple

#: One sample every 50 ms, of about 0.35 ms: under 1% of the process's time.
INTERVAL_S = 0.05
LOOPS = 5_000


def loop_s() -> float:
    """Time ``LOOPS`` iterations of a fixed pure-Python loop."""
    start = time.perf_counter()
    total = 0
    for i in range(LOOPS):
        total += i * i
    return time.perf_counter() - start


class SpeedSampler:
    def __init__(self) -> None:
        #: (``clock()`` when the sample started, the loop's time)
        self.samples: List[Tuple[float, float]] = []
        #: Seconds spent in the handler so far.
        self.spent = 0.0

    def sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        self.samples.append((start - self.spent, loop_s()))
        self.spent += time.perf_counter() - start

    def clock(self) -> float:
        """``time.perf_counter()`` without the time spent sampling."""
        return time.perf_counter() - self.spent

    @contextlib.contextmanager
    def running(self) -> Iterator["SpeedSampler"]:
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def mean_s(self, start: float, end: float) -> float:
        """Mean loop time of the samples taken between two ``clock()``
        readings; a phase too short to hold one is sampled once now."""
        inside = [seconds for at, seconds in self.samples if start <= at < end]
        return statistics.fmean(inside) if inside else loop_s()
