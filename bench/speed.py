"""How fast this process runs, sampled while the benchmark's results run.

On a shared machine the same work runs at different speeds from one minute
to the next, as other tenants come and go; a whole run can be half as fast
as the run before it.  ``SpeedProbe`` measures that: a ``SIGALRM`` timer
interrupts the loop every ``INTERVAL_S`` and the handler times one fixed
reference computation (``reference_s``), code that lives here and does not
change with the library.  The benchmark scales a wall time (a cycle's, a
result's or a set-up's) by ``NOMINAL_S`` over the mean reference time of the
samples taken while it passed, which gives *reference seconds*: the time the
work would take at the speed where one reference computation takes
``NOMINAL_S``.  The handler's own time is taken out of the results' times.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np

INTERVAL_S = 0.2  # time between speed samples
NOMINAL_S = 0.003  # one reference computation at the reference speed
STEPS = 400  # size of the reference computation (a few milliseconds)
FIRST = 5  # samples taken at once when the probe starts

_X = np.linspace(-1.0, 1.0, 48)


def reference_s() -> float:
    """Seconds this process takes for a fixed computation that mixes small
    numpy calls with interpreter work, as the library's quadratures do."""
    t0 = perf_counter()
    acc = 0.0
    table = {}
    for i in range(STEPS):
        a = np.exp(-_X * _X * (1.0 + i * 1e-3)) * np.cos(3.0 * _X)
        acc += float(np.dot(a, a)) + math.erf(i * 1e-3)
        for j in range(12):
            table[(i + j) % 64] = acc + (i * j) % 7
    return perf_counter() - t0


class SpeedProbe:
    """Speed samples taken from a timer while ``running()``."""

    def __init__(self, interval_s=INTERVAL_S, first=FIRST):
        self.interval_s = interval_s
        self.first = first
        self.samples = []  # (perf_counter at the sample, reference seconds)
        self.spent = 0.0  # time spent in the handler

    def _tick(self, signum=None, frame=None):
        t0 = perf_counter()
        self.samples.append((t0, reference_s()))
        self.spent += perf_counter() - t0

    @contextmanager
    def running(self):
        for _ in range(self.first):
            self._tick()
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def clock(self) -> float:
        """Seconds, like ``perf_counter``, but stopped while the handler runs."""
        return perf_counter() - self.spent

    def scale(self, t0=-math.inf, t1=math.inf) -> float:
        """Reference seconds per wall second over [t0, t1]: from the samples
        taken in that interval, or from the nearest one if there is none."""
        times = [t for t, _ in self.samples]
        lo, hi = bisect.bisect_left(times, t0), bisect.bisect_right(times, t1)
        if lo < hi:
            refs = [ref for _, ref in self.samples[lo:hi]]
        else:
            near = [i for i in (lo - 1, lo) if 0 <= i < len(times)]
            refs = [self.samples[min(near, key=lambda i: abs(times[i] - t1))][1]]
        return NOMINAL_S / statistics.fmean(refs)

