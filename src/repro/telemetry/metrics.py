"""Counters, gauges and streaming histograms for run telemetry.

A :class:`MetricsRegistry` is an in-memory, dependency-free metrics store:

* **counters** — monotonically increasing integers (``env.oom``),
* **gauges** — last-value-wins floats (``trainer.best_runtime``),
* **histograms** — streaming distributions with exact count/sum/min/max
  and approximate quantiles (p50/p95/p99) from a bounded reservoir
  (Vitter's Algorithm R with a deterministic per-name RNG, so snapshots
  are reproducible run to run).

Timed sections are :func:`repro.telemetry.tracing.span`, which observes
each section's seconds into a ``profile.<path>`` histogram here.

Usage::

    m = MetricsRegistry()
    m.counter("env.oom").inc()
    m.gauge("trainer.best_runtime").set(1.23)
    m.histogram("env.makespan").observe(0.04)
    m.snapshot()["histograms"]["env.makespan"]["p95"]
"""

from __future__ import annotations

import math
import random
import zlib
from typing import Dict, List

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

#: Default reservoir capacity for histogram quantile estimation.
DEFAULT_RESERVOIR_SIZE = 512


class Counter:
    """Monotonic integer counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def to_dict(self) -> dict:
        return {"value": self.value}


class Gauge:
    """Last-value-wins float, tracking how many times it was set."""

    __slots__ = ("name", "value", "updates")

    def __init__(self, name: str):
        self.name = name
        self.value = float("nan")
        self.updates = 0

    def set(self, value: float) -> None:
        self.value = float(value)
        self.updates += 1

    def to_dict(self) -> dict:
        return {"value": self.value, "updates": self.updates}


class Histogram:
    """Streaming distribution: exact moments, reservoir-based quantiles."""

    __slots__ = ("name", "count", "total", "min", "max", "_reservoir", "_capacity", "_rng")

    def __init__(self, name: str, reservoir_size: int = DEFAULT_RESERVOIR_SIZE):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._capacity = max(1, int(reservoir_size))
        self._reservoir: List[float] = []
        # Deterministic per-name seed keeps quantile estimates reproducible
        # — including across processes: `hash(str)` is salted per process
        # (PYTHONHASHSEED), crc32 is not.
        self._rng = random.Random(zlib.crc32(name.encode("utf-8")))

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self._reservoir) < self._capacity:
            self._reservoir.append(value)
        else:  # Algorithm R: replace with probability capacity/count.
            j = self._rng.randrange(self.count)
            if j < self._capacity:
                self._reservoir[j] = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def quantile(self, q: float) -> float:
        """Linear-interpolated quantile of the reservoir (q in [0, 1])."""
        if not self._reservoir:
            return float("nan")
        data = sorted(self._reservoir)
        if len(data) == 1:
            return data[0]
        pos = min(max(q, 0.0), 1.0) * (len(data) - 1)
        lo = int(math.floor(pos))
        hi = min(lo + 1, len(data) - 1)
        frac = pos - lo
        return data[lo] * (1.0 - frac) + data[hi] * frac

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else float("nan"),
            "max": self.max if self.count else float("nan"),
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


class MetricsRegistry:
    """Named metric store with get-or-create accessors."""

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- accessors ------------------------------------------------------
    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name)
        return g

    def histogram(self, name: str) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name)
        return h

    # -- introspection --------------------------------------------------
    def names(self) -> List[str]:
        """All distinct metric names, sorted."""
        return sorted(
            set(self._counters) | set(self._gauges) | set(self._histograms)
        )

    def snapshot(self) -> dict:
        """JSON-serializable view of every metric.

        Safe while other threads record without a lock: ``d.copy()``
        copies each dict in one C call that allocates no tracked object
        per entry, so no garbage collection (whose finalizers run Python
        code and can switch threads) lets a metric be created mid-copy.
        ``sorted(d.items())`` alone is not: it allocates a tuple per entry.
        """
        return {
            "counters": {n: c.to_dict() for n, c in sorted(self._counters.copy().items())},
            "gauges": {n: g.to_dict() for n, g in sorted(self._gauges.copy().items())},
            "histograms": {
                n: h.to_dict() for n, h in sorted(self._histograms.copy().items())
            },
        }
