"""Host time in seconds of a reference host.

The benchmark's host, a VM shared with other tenants, changes speed by
a third within seconds (a fixed job's time swung 0.041-0.102 s in four
minutes), so a single speed figure per run cannot correct its times.
While a :class:`HostClock` runs, a ``SIGALRM`` handler times a fixed
pure-Python job after every ``CALIBRATE_EVERY_S`` of work, inside long
operations too; an interval of work is then converted to reference
seconds piece by piece, each piece at the speed of the samples on both
sides of it. Only the standard library is used, so the clock can run
before ``repro`` is imported and time that import as well.
"""

from __future__ import annotations

import bisect
import gc
import math
import random
import signal
import statistics
import time
from typing import List, Tuple

#: Seconds of work between two calibration samples.
CALIBRATE_EVERY_S = 0.3
#: The calibration job's median time on the host the bounds were set on
#: (2-core Xeon VM); scaled host times are seconds on a host this fast.
CALIBRATION_REF_S = 0.07
#: Objects the calibration job reads, and lookups per sample.
CALIBRATION_NODES, CALIBRATION_STEPS = 20000, 50000


class _Node:
    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c):
        self.a, self.b, self.c = a, b, c


def calibration_nodes(n: int = CALIBRATION_NODES) -> List[_Node]:
    return [_Node(i, [i, i + 1], {"k": i}) for i in range(n)]


def calibration_job(nodes: List[_Node],
                    steps: int = CALIBRATION_STEPS) -> int:
    """A fixed pure-Python job shaped like the program's work:
    attribute, list and dict lookups over a few MiB of small objects,
    small-int arithmetic. It runs no ``repro`` code, so no change to the
    program moves it, and it allocates nothing that outlives it, so it
    moves neither the collector's schedule nor the peak memory."""
    rng = random.Random(7)
    n = len(nodes)
    acc = 0
    for _ in range(steps):
        node = nodes[rng.randrange(n)]
        acc += node.a + node.b[1] + node.c["k"]
    return acc


class HostClock:
    """Work time and its conversion to reference seconds.

    *Work time* is wall time minus the time spent calibrating. The
    objects the job reads are built once, when the clock is made.
    """

    def __init__(self):
        self.paused = 0.0  # seconds spent calibrating
        #: (work time at the sample, the job's seconds)
        self.samples: List[Tuple[float, float]] = []
        self._marks: List[float] = []  # reference seconds at each sample
        self._saved = None
        self._nodes = calibration_nodes()

    def now(self) -> float:
        """Work time; retried if a sample lands while it is read."""
        while True:
            paused = self.paused
            t = time.perf_counter()
            if paused == self.paused:
                return t - paused

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()  # a collection here would pass for a slow host
        t0 = time.perf_counter()
        calibration_job(self._nodes)
        dt = time.perf_counter() - t0
        if enabled:
            gc.enable()
        self.samples.append((t0 - self.paused, dt))
        self.paused += dt

    def _tick(self, _signum, _frame) -> None:
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S)

    def start(self) -> None:
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S)

    def stop(self) -> None:
        if self._saved is None:
            return
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)
        self._saved = None
        self.sample()

    def _mark(self, w: float) -> float:
        """Reference seconds from the first sample to work time ``w``."""
        s = self.samples
        while len(self._marks) < len(s):
            k = len(self._marks)
            self._marks.append(0.0 if k == 0 else self._marks[-1] + (
                s[k][0] - s[k - 1][0]) * 2 * CALIBRATION_REF_S / (
                    s[k - 1][1] + s[k][1]))
        k = bisect.bisect_right(s, (w, math.inf)) - 1
        if k < 0:
            return (w - s[0][0]) * CALIBRATION_REF_S / s[0][1]
        speed = (s[k][1] + s[k + 1][1]) / 2 if k + 1 < len(s) else s[k][1]
        return self._marks[k] + (w - s[k][0]) * CALIBRATION_REF_S / speed

    def scaled(self, w0: float, w1: float) -> float:
        """Reference seconds of the work between work times w0 and w1
        (host seconds unchanged when nothing was sampled)."""
        if not self.samples:
            return w1 - w0
        return self._mark(w1) - self._mark(w0)

    def scale(self) -> float:
        """Reference seconds per host second at the median sample."""
        if not self.samples:
            return 1.0
        return CALIBRATION_REF_S / statistics.median(
            dt for _w, dt in self.samples)
