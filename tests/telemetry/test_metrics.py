"""Unit tests for the metrics registry (counters, histograms, timed sections)."""

import math
import sys
import threading
import time

import pytest

from repro.telemetry import Telemetry
from repro.telemetry.metrics import Histogram, MetricsRegistry
from repro.telemetry.tracing import span


class TestCounterGauge:
    def test_counter_monotone(self):
        m = MetricsRegistry()
        m.counter("x").inc()
        m.counter("x").inc(4)
        assert m.counter("x").value == 5

    def test_gauge_last_value_wins(self):
        m = MetricsRegistry()
        m.gauge("g").set(1.0)
        m.gauge("g").set(2.5)
        assert m.gauge("g").value == 2.5
        assert m.gauge("g").updates == 2

    def test_get_or_create_identity(self):
        m = MetricsRegistry()
        assert m.counter("a") is m.counter("a")
        assert m.histogram("h") is m.histogram("h")


class TestHistogram:
    def test_exact_moments(self):
        h = Histogram("h")
        for v in [1.0, 2.0, 3.0, 10.0]:
            h.observe(v)
        assert h.count == 4
        assert h.total == 16.0
        assert h.min == 1.0 and h.max == 10.0
        assert h.mean == 4.0

    def test_quantiles_exact_when_small(self):
        h = Histogram("h")
        for v in range(1, 101):
            h.observe(float(v))
        assert h.quantile(0.0) == 1.0
        assert h.quantile(1.0) == 100.0
        assert abs(h.quantile(0.5) - 50.5) < 1.0

    def test_quantiles_streaming_approximation(self):
        # 10k observations through a 512-slot reservoir: quantile
        # estimates must stay within a few percent of the true values.
        h = Histogram("h", reservoir_size=512)
        for v in range(10_000):
            h.observe(float(v))
        assert h.count == 10_000
        assert abs(h.quantile(0.50) - 5_000) < 1_000
        assert abs(h.quantile(0.95) - 9_500) < 600
        assert abs(h.quantile(0.99) - 9_900) < 400

    def test_deterministic_reservoir(self):
        a, b = Histogram("same"), Histogram("same")
        for v in range(5_000):
            a.observe(float(v))
            b.observe(float(v))
        assert a.quantile(0.5) == b.quantile(0.5)

    def test_reservoir_seed_stable_across_processes(self):
        # Regression: the per-name seed used `hash(name)`, which Python
        # salts per process (PYTHONHASHSEED) — quantile estimates differed
        # between runs despite the "deterministic" comment. The seed must
        # be a process-independent digest of the name.
        import random
        import zlib

        h = Histogram("env.makespan")
        expected = random.Random(zlib.crc32(b"env.makespan"))
        assert h._rng.getstate() == expected.getstate()

    def test_empty_quantile_nan(self):
        assert math.isnan(Histogram("h").quantile(0.5))

    def test_snapshot_keys(self):
        m = MetricsRegistry()
        m.histogram("h").observe(1.0)
        snap = m.snapshot()["histograms"]["h"]
        for key in ("count", "sum", "min", "max", "mean", "p50", "p95", "p99"):
            assert key in snap


def profile(tel, path):
    return tel.metrics.histogram(f"profile.{path}")


class TestConcurrentSnapshot:
    def test_snapshot_while_another_thread_creates_metrics(self):
        """snapshot() copies each metric dict in one C call, so a metric
        created on another thread mid-snapshot never raises
        ``RuntimeError: dictionary changed size during iteration``. The
        creator leaves cyclic garbage with finalizers behind: a garbage
        collection inside the snapshot then runs Python code, which is
        where the GIL can hand over to the creator."""
        m = MetricsRegistry()
        done = threading.Event()
        errors = []

        class Cyclic:
            def __init__(self):
                self.me = self

            def __del__(self):
                sum(range(50))

        def create():
            for i in range(2000):
                m.counter(f"c{i}").inc()
                m.histogram(f"h{i}").observe(float(i))
                Cyclic()
            done.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            creator = threading.Thread(target=create)
            creator.start()
            while not done.is_set():
                try:
                    m.snapshot()
                except RuntimeError as exc:
                    errors.append(exc)
            creator.join()
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors[:1]
        snapshot = m.snapshot()
        assert len(snapshot["counters"]) == len(snapshot["histograms"]) == 2000


class TestTimers:
    """Timed sections: ``span`` observes ``profile.<path>`` histograms."""

    def test_timer_records_elapsed(self):
        tel = Telemetry()
        for _ in range(2):
            with span("t", telemetry=tel):
                time.sleep(0.01)
        h = profile(tel, "t")
        assert h.count == 2  # repeated sections accumulate
        assert h.total >= 0.018

    def test_timer_nesting_records_both(self):
        tel = Telemetry()
        with span("outer", telemetry=tel):
            with span("inner", telemetry=tel):
                pass
        assert profile(tel, "outer").count == 1
        assert profile(tel, "outer/inner").count == 1
        assert profile(tel, "outer").total >= profile(tel, "outer/inner").total

    def test_span_hierarchical_names(self):
        tel = Telemetry()
        with span("train", telemetry=tel):
            with span("sample", telemetry=tel):
                pass
            with span("update", telemetry=tel):
                pass
        assert profile(tel, "train").count == 1
        assert profile(tel, "train/sample").count == 1
        assert profile(tel, "train/update").count == 1
        # Stack unwinds fully: a later top-level section is not nested.
        with span("eval", telemetry=tel):
            pass
        assert profile(tel, "eval").count == 1

    def test_timer_survives_exception(self):
        tel = Telemetry()
        with pytest.raises(RuntimeError):
            with span("t", telemetry=tel):
                raise RuntimeError("boom")
        assert profile(tel, "t").count == 1

    def test_span_unwinds_on_exception(self):
        tel = Telemetry()
        with pytest.raises(RuntimeError):
            with span("a", telemetry=tel):
                raise RuntimeError("boom")
        with span("b", telemetry=tel):
            pass
        assert profile(tel, "b").count == 1
        assert "profile.a/b" not in tel.metrics.names()

