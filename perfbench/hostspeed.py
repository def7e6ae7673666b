"""The host's speed, sampled during a run, to give times at one fixed speed.

The benchmark runs on a share of a machine whose speed drifts: the same
pure-Python loop takes up to 1.7 times as long from one minute to the next,
on both CPUs at once, and slow spells outlast a run, so no repetition inside
a run averages them out.  So a fixed reference job (a little interpreted
Python and a little numpy, none of it peepgen's code) is timed around what
the benchmark measures, every `PERIOD` seconds from a timer signal while a
pass runs.
`HostSpeed.scaled` gives how long an interval would have taken had the
reference job taken `NOMINAL_S` throughout: each stretch between two samples
is scaled by `NOMINAL_S` / the job's time around it, and the time of the
samples themselves is left out.  A change to peepgen moves a scaled time as
it moves the wall time, because the reference job runs none of peepgen's
code.
"""
from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import time

import numpy

PERIOD = 0.1
# a fixed time near the reference job's on a 2-CPU Xeon VM; it sets only
# the scale of the scaled times
NOMINAL_S = 4.0e-4
# samples whose median gives the job time around one stretch
WINDOW = 5

_ARRAY = numpy.arange(1 << 14, dtype=numpy.uint64)
_MUL = numpy.uint64(0x9E3779B97F4A7C15)
_SHIFT = numpy.uint64(17)
_LOW = numpy.uint64(255)


def reference_job() -> int:
    acc, table = 0, {}
    for i in range(1000):
        acc = (acc * 31 + i) & 0xFFFF
        table[i & 31] = (acc, i)
    mixed = (_ARRAY * _MUL) >> _SHIFT
    return acc + int(numpy.count_nonzero(mixed & _LOW))


class HostSpeed:
    def __init__(self):
        self.ends: list = []   # when each sample ended
        self.jobs: list = []   # how long its reference job took

    def sample(self) -> None:
        start = time.perf_counter()
        reference_job()
        end = time.perf_counter()
        self.ends.append(end)
        self.jobs.append(end - start)

    @contextlib.contextmanager
    def ticking(self):
        """Sample on entry, every PERIOD seconds inside, and on exit."""
        self.sample()
        handler = signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, handler)
            self.sample()

    def scaled(self, start: float, end: float) -> float:
        """Seconds of the interval [start, end] at the host speed where the
        reference job takes NOMINAL_S; there must be samples before and
        after the interval."""
        total = 0.0
        k = bisect.bisect_left(self.ends, start)
        half = WINDOW // 2
        for k in range(max(k, 1), len(self.ends)):
            # the stretch from the end of sample k-1 to the start of sample k
            lo = max(self.ends[k - 1], start)
            hi = min(self.ends[k] - self.jobs[k], end)
            if hi > lo:
                around = self.jobs[max(k - half, 0):k + half + 1]
                total += (hi - lo) * NOMINAL_S / statistics.median(around)
            if self.ends[k] >= end:
                break
        return total
