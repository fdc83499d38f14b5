"""How fast the machine runs, sampled while the benchmark runs.

The benchmark runs on a few cores of a shared host.  There the same pass
over the same ops takes from 0.68 to 1.26 times its median from one minute to
the next, as neighbours load the core, and that drift outweighs any bound a
regression check could use.  A `Speedometer` therefore times a small fixed
reference kernel every `INTERVAL_S`, from a SIGALRM handler, so samples are
taken inside long ops too.  `slowdown(start, end)` is the median kernel time
sampled within `WINDOW_S` of an interval, over `REFERENCE_S`; an op's time
divided by it is the op's time on a machine where the kernel takes
`REFERENCE_S`.  Over recordings of several minutes this took the spread of
pass times from 0.68-1.26 of their median to 0.96-1.09 (lqre_corpus), and
of single 20 s nash_cards ops from 0.82-1.13 to 0.88-1.06.

`clock()` is perf_counter less the time spent in the kernel, so every
interval measured with it leaves the sampling out.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from contextlib import contextmanager
from typing import Iterator

import numpy as np

INTERVAL_S = 0.1  # time between samples
WINDOW_S = 0.2  # samples this far either side of an interval count for it
# About the kernel's 10th percentile (0.69-0.77 ms) over two recordings of
# several minutes on the 2-vCPU machine the benchmark was tuned on; scaled
# times are times at that speed.
REFERENCE_S = 0.7e-3

_RNG = np.random.default_rng(0)
_SYSTEM = _RNG.uniform(size=(6, 4))
_RHS = np.arange(6.0)
_TABLE = _RNG.uniform(size=(4, 9))


def kernel() -> float:
    """Fixed work in the program's mix: a Python loop, a logit on a small
    vector, and small least-squares solves and products."""
    s = 0.0
    for i in range(1500):
        s += (i * 7 % 13) * 0.5
    a = np.linspace(0.0, 1.0, 8)
    for _ in range(60):
        e = np.exp(-a)
        a = e / np.sum(e)
    for _ in range(15):
        x, *_ = np.linalg.lstsq(_SYSTEM, _RHS, rcond=None)
        v = _TABLE @ np.multiply.outer(x, x).ravel()[:9]
    return s + float(a[0] + v[0])


class Speedometer:
    def __init__(self) -> None:
        self.times: list[float] = []  # clock() at each sample
        self.samples: list[float] = []  # kernel seconds at each sample
        self.spent = 0.0
        self._sampling = False

    def clock(self) -> float:
        """perf_counter less the kernel time so far."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            if self.spent == spent:  # no sample ran in between
                return now - spent

    def sample(self, *_signal_args) -> None:
        if self._sampling:  # a timer signal that lands inside a sample is dropped
            return
        self._sampling = True
        t0 = time.perf_counter()
        kernel()
        took = time.perf_counter() - t0
        self.times.append(t0 - self.spent)
        self.samples.append(took)
        self.spent += took
        self._sampling = False

    @contextmanager
    def running(self) -> Iterator["Speedometer"]:
        """Sample every INTERVAL_S inside the block, and around it."""
        for _ in range(20):  # warm the kernel's code paths before any sample
            kernel()
        previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()

    def slowdown(self, start: float, end: float) -> float:
        """Median kernel time within WINDOW_S of [start, end], over REFERENCE_S;
        the nearest sample when there is none that close."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if lo == hi:
            lo = min(lo, len(self.times) - 1)
            if lo > 0 and start - self.times[lo - 1] < self.times[lo] - end:
                lo -= 1
            hi = lo + 1
        return statistics.median(self.samples[lo:hi]) / REFERENCE_S
