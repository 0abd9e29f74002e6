"""Machine speed, measured while a workload runs, so that times can be
reported at one nominal speed.

On a shared host the same code can run twice as fast in one minute as in
the next, with no time stolen from the process: its CPU time changes as much
as its wall time.  Code that touches more memory per instruction slows down
more; a tight float loop slows down least.  A fixed reference kernel, timed
every ``INTERVAL_S`` seconds from a SIGALRM handler while the workload runs,
tracks that speed.  Its two parts are the kinds of work that dominate qnn:
many small numpy calls (per-neuron work at B=100) and Python object churn
(deep copies of a small object graph, as qnn copies network specs).  The
speed factor of an interval is the geometric mean, over the parts, of each
part's median time near the interval over its nominal time.  A time divided
by it is the time at nominal speed.
"""

from __future__ import annotations

import bisect
import copy
import math
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.1
# Kernel samples up to this far either side of an interval set its factor.
WINDOW_S = 1.0
# Samples taken on entering and on leaving a probe, so short phases have some.
EDGE_SAMPLES = 5
# Median part times on the 2-core x86 VM (Python 3.11.7, numpy 2.4.6) where
# the benchmark was defined.  They set only the scale of the reported times.
NOMINAL_S = (4.0e-4, 6.5e-4)

_rng = np.random.default_rng(0)
_SMALL_X, _SMALL_W = _rng.random((100, 4)), _rng.random((4, 4))


class _Node:
    def __init__(self, i: int):
        self.weights = [0.1 * i, 0.2, 0.3]
        self.meta = {"index": i, "kind": "quadratic"}


_GRAPH = [_Node(i) for i in range(20)]


def _small():
    for _ in range(60):
        y = _SMALL_X @ _SMALL_W
        y = y * y + 1.0


def _objects():
    graph = _GRAPH
    for _ in range(2):
        graph = copy.deepcopy(graph)


PARTS = (_small, _objects)


def kernel() -> tuple[float, ...]:
    """Seconds taken by each part of the reference kernel, run once."""
    times = []
    for part in PARTS:
        started = time.perf_counter()
        part()
        times.append(time.perf_counter() - started)
    return tuple(times)


def factor(samples) -> float:
    """Speed factor of kernel samples: 1 at nominal speed, 2 at half of it."""
    logs = [math.log(statistics.median(s[k] for s in samples) / NOMINAL_S[k])
            for k in range(len(PARTS))]
    return math.exp(sum(logs) / len(logs))


class Probe:
    """Times the kernel every INTERVAL_S seconds while entered."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.samples: list[tuple[float, ...]] = []
        self._busy = False
        self._old_handler = None

    def _take(self) -> None:
        started = time.perf_counter()
        self.samples.append(kernel())
        self.starts.append(started)
        self.ends.append(time.perf_counter())

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:  # a late alarm never nests a second sample
            self._busy = True
            try:
                self._take()
            finally:
                self._busy = False

    def __enter__(self) -> "Probe":
        for _ in range(EDGE_SAMPLES):
            self._take()
        self._old_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        for _ in range(EDGE_SAMPLES):
            self._take()

    def factor(self, t0: float, t1: float) -> float:
        """Speed factor from the samples taken within WINDOW_S of [t0, t1]."""
        lo = bisect.bisect_left(self.starts, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.starts, t1 + WINDOW_S)
        return factor(self.samples[lo:hi] or self.samples)

    def nominal(self, t0: float, t1: float) -> float:
        """Seconds from t0 to t1 at nominal speed, without the kernel's own runs.

        A sample that starts inside [t0, t1) also ends inside it: the
        handler returns before the code that reads t1 runs again.
        """
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        spent = sum(self.ends[i] - self.starts[i] for i in range(lo, hi))
        return (t1 - t0 - spent) / self.factor(t0, t1)
