"""Wall time at a fixed host speed, for benchmarks on shared hosts.

The benchmark runs on small shared virtual machines whose speed drifts.
On a 2-core VM (Python 3.11.7, NumPy 2.4.6) the same annealing work took
between 1x and 2x its best time, in slow stretches of ten seconds to
minutes, with no steal time and with CPU time rising with wall time. The
run-to-run spread (interquartile range over median) of its wall time
stayed at 20-27% for runs of 10 s to 60 s alike, so no regression bound
tighter than that could hold on raw wall time.

:class:`RefClock` runs a fixed reference kernel from an interval timer
(every :data:`INTERVAL_S` seconds, about 2% of the run) and times each call
in thread CPU time. A span of work is then reported as its wall time,
less the time the kernel took inside it, times the host's speed around it:
the mean of ``REF_S / kernel time`` over the samples near the span. That
is the time the work would have taken had the host run at the speed
where the kernel takes :data:`REF_S`. Scaled this way, the same annealing
work spread 3-5% over 20-60 s windows.

The kernel is the benchmark's own code, which a change under test does
not edit, and it is timed in CPU time of its own thread: work the program
leaves running on other threads slows the program's wall time, never the
reference.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

#: Thread CPU seconds of one :func:`kernel` call at the reference speed
#: (its usual time on a 2-core Xeon VM when the host is quiet).
REF_S = 0.0025
INTERVAL_S = 0.2
#: A span is scaled by the samples within this many seconds of it, and by
#: at least :data:`MIN_SAMPLES` samples nearest to its midpoint.
WINDOW_S = 1.0
MIN_SAMPLES = 5

_MAT = np.random.default_rng(0).standard_normal((48, 48)) / 8.0


def kernel() -> float:
    """Fixed work in the mix the benchmark's workloads run: interpreted
    Python (dict, str and int operations) and small NumPy products."""
    table: dict = {}
    total = 0
    for i in range(6000):
        key = i % 61
        table[key] = table.get(key, 0) + i
        total += len(str(i))
    v = _MAT
    for _ in range(80):
        v = np.tanh(v @ _MAT)
    return total + float(v[0, 0])


class RefClock:
    """Samples the host's speed from ``SIGALRM`` while it is started.

    The handler runs in the main thread between bytecodes, so the samples
    interleave with the work they scale whatever the work is. Use it from
    the main thread of one process at a time."""

    def __init__(self):
        self.times: list = []  # perf_counter at the end of each sample
        self.costs: list = []  # thread CPU seconds of each kernel call
        self._inside = 0.0  # wall seconds spent in the handler so far
        self._previous = None

    def _sample(self, *_):
        begin = time.perf_counter()
        cpu = time.thread_time()
        kernel()
        self.costs.append(time.thread_time() - cpu)
        end = time.perf_counter()
        self.times.append(end)
        self._inside += end - begin

    def start(self) -> "RefClock":
        for _ in range(MIN_SAMPLES):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        for _ in range(MIN_SAMPLES):
            self._sample()

    def __enter__(self) -> "RefClock":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def now(self) -> tuple:
        """A stamp to pass to :meth:`scaled`: the wall clock and the
        handler time so far, read with no sample between them."""
        while True:
            inside = self._inside
            wall = time.perf_counter()
            if inside == self._inside:
                return wall, inside

    def speed(self, start: float, end: float) -> float:
        """Mean host speed (1.0 at the reference speed) around
        ``[start, end]`` on the ``perf_counter`` clock."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if hi - lo < MIN_SAMPLES:
            mid = bisect.bisect_left(self.times, (start + end) / 2.0)
            lo = max(0, min(mid - MIN_SAMPLES // 2, len(self.times) - MIN_SAMPLES))
            hi = lo + MIN_SAMPLES
        costs = self.costs[lo:hi]
        return sum(REF_S / c for c in costs) / len(costs)

    def scaled(self, a: tuple, b: tuple) -> float:
        """Seconds from stamp ``a`` to stamp ``b`` at the reference speed,
        the kernel's own time left out."""
        return ((b[0] - a[0]) - (b[1] - a[1])) * self.speed(a[0], b[0])
