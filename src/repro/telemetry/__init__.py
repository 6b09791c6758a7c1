"""Unified run telemetry: metrics, JSONL event logs, timed sections.

This package is the repo's observability layer (see
``docs/observability.md`` for the guide). It needs no third-party
package of its own and is deliberately small:

* :class:`~repro.telemetry.metrics.MetricsRegistry` — counters, gauges,
  streaming histograms (p50/p95/p99),
* :func:`~repro.telemetry.tracing.span` — the one timed section: it
  observes a ``profile.<path>`` histogram and, inside a trace, emits a
  ``span`` event,
* :class:`~repro.telemetry.events.RunLogger` — schema-versioned JSONL
  event files with rotation,
* :class:`Telemetry` — a facade bundling the two, plus the *ambient*
  telemetry stack that instrumented code resolves against.

Instrumented modules (``rl/trainer.py``, ``sim/env.py``,
``gnn/pretrain.py``) call :func:`get_telemetry` and record into whatever
session is active. By default that is an in-memory metrics registry with
a null event sink — telemetry is *on* but writes nothing to disk. A run
session activates file-backed logging:

    from repro.telemetry import start_run, use_telemetry

    tel = start_run("my-search", base_dir="runs")
    with use_telemetry(tel):
        result = optimize_placement(graph, cluster, "mars", config)
    tel.close()                      # writes metrics.json + run_end

    # later: python -m repro.telemetry.report runs/my-search

Every session records metrics, so any run can answer "where did the
time go?" from its ``profile.*`` sections.
"""

from __future__ import annotations

import json
import os
import platform
import re
import sys
import threading
import time
from contextlib import contextmanager
from typing import List, Optional

from repro.telemetry.events import (
    EVENT_SCHEMAS,
    SCHEMA_VERSION,
    NullRunLogger,
    RunLogger,
    read_events,
    validate_event,
)
from repro.telemetry.health import HealthAlert, HealthConfig, HealthWatchdog
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracing import (
    Span,
    SpanContext,
    current_span,
    new_trace_id,
    span,
)
from repro.utils.serialization import write_json_atomic

__all__ = [
    "SCHEMA_VERSION",
    "EVENT_SCHEMAS",
    "HealthAlert",
    "HealthConfig",
    "HealthWatchdog",
    "MetricsRegistry",
    "RunLogger",
    "NullRunLogger",
    "read_events",
    "validate_event",
    "Span",
    "SpanContext",
    "span",
    "current_span",
    "new_trace_id",
    "Telemetry",
    "get_telemetry",
    "use_telemetry",
    "start_run",
]


class Telemetry:
    """A metrics registry and an event log behind one handle.

    In memory by default (metrics only, events to a :class:`NullRunLogger`);
    :func:`start_run` builds the file-backed shape.
    """

    def __init__(
        self,
        events=None,
        run_dir: Optional[str] = None,
        name: str = "run",
        flush_interval_s: Optional[float] = None,
    ):
        self.name = name
        self.run_dir = run_dir
        self.metrics = MetricsRegistry()
        self.events = events if events is not None else NullRunLogger()
        # Span, per-sample and per-eval events are the highest-volume
        # hooks; skip building them when they would land in a null sink.
        self.writes_events = not isinstance(self.events, NullRunLogger)
        self._closed = False
        # Monotonic birth time: run duration must not jump when NTP steps
        # the wall clock mid-run; wall_time fields stay `time.time()`.
        self._start_perf = time.perf_counter()
        # Periodic background flush: keeps metrics.json and the event
        # log fresh on disk even when the run crashes before close().
        # Only meaningful for file-backed sessions.
        self.flush_interval_s = flush_interval_s
        self._flush_stop: Optional[threading.Event] = None
        self._flush_thread: Optional[threading.Thread] = None
        if run_dir and flush_interval_s and flush_interval_s > 0:
            self._flush_stop = threading.Event()
            self._flush_thread = threading.Thread(
                target=self._flush_loop,
                name=f"telemetry-flush-{name}",
                daemon=True,
            )
            self._flush_thread.start()

    # -- delegation sugar ----------------------------------------------
    def counter(self, name: str):
        return self.metrics.counter(name)

    def gauge(self, name: str):
        return self.metrics.gauge(name)

    def histogram(self, name: str):
        return self.metrics.histogram(name)

    def emit(self, etype: str, **fields) -> None:
        self.events.emit(etype, **fields)

    # -- run artifacts --------------------------------------------------
    def write_manifest(self, **extra) -> Optional[str]:
        """Write ``manifest.json`` into the run directory (if any)."""
        if not self.run_dir:
            return None
        manifest = {
            "name": self.name,
            "schema_version": SCHEMA_VERSION,
            "created_unix": time.time(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "argv": list(sys.argv),
        }
        manifest.update(extra)
        path = os.path.join(self.run_dir, "manifest.json")
        write_json_atomic(path, manifest, indent=2, default=str)
        return path

    def update_manifest(self, **extra) -> Optional[str]:
        """Merge ``extra`` into an existing ``manifest.json`` (if any).

        Used for facts only known mid-run — e.g. the health watchdog's
        halt reason. A no-op for memory-only sessions.
        """
        if not self.run_dir:
            return None
        path = os.path.join(self.run_dir, "manifest.json")
        manifest = {}
        if os.path.exists(path):
            try:
                with open(path) as fh:
                    manifest = json.load(fh)
            except (OSError, ValueError):  # pragma: no cover - defensive
                manifest = {}
        manifest.update(extra)
        write_json_atomic(path, manifest, indent=2, default=str)
        return path

    def write_metrics(self) -> Optional[str]:
        """Snapshot every metric to ``metrics.json`` (if file-backed)."""
        if not self.run_dir:
            return None
        path = os.path.join(self.run_dir, "metrics.json")
        write_json_atomic(path, self.metrics.snapshot(), indent=2, default=float)
        return path

    def flush(self) -> None:
        """Write the current metrics snapshot and sync buffered events.

        Safe to call from any thread at any point in the run; the
        periodic flush thread calls it on its interval.
        """
        if not self.run_dir or self._closed:
            return
        self.write_metrics()
        self.events.flush()

    def _flush_loop(self) -> None:
        while not self._flush_stop.wait(self.flush_interval_s):
            self.flush()

    def close(self) -> None:
        """Emit ``run_end``, flush metrics and close the event log."""
        if self._closed:
            return
        if self._flush_stop is not None:
            self._flush_stop.set()
            self._flush_thread.join(timeout=5.0)
        self._closed = True
        if self.run_dir:
            self.emit(
                "run_end",
                wall_time=time.time(),
                duration_s=time.perf_counter() - self._start_perf,
            )
            self.write_metrics()
        self.events.close()

    def __enter__(self) -> "Telemetry":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# The ambient stack. The bottom entry means "telemetry on, in memory":
# metrics accumulate process-wide, events go nowhere.
_STACK: List[Telemetry] = [Telemetry(name="ambient")]


def get_telemetry() -> Telemetry:
    """The currently active telemetry session (never ``None``)."""
    return _STACK[-1]


@contextmanager
def use_telemetry(telemetry: Optional[Telemetry]):
    """Make ``telemetry`` the ambient session for the ``with`` body.

    ``None`` leaves the current session in place, so call sites can write
    ``with use_telemetry(maybe_tel):`` unconditionally. Does **not** close
    the session on exit — the creator owns its lifetime.
    """
    if telemetry is None:
        yield get_telemetry()
        return
    _STACK.append(telemetry)
    try:
        yield telemetry
    finally:
        _STACK.pop()


def _slug(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "-", name).strip("-") or "run"


def start_run(
    name: str,
    base_dir: str,
    manifest: Optional[dict] = None,
    flush_interval_s: Optional[float] = None,
) -> Telemetry:
    """Open a file-backed telemetry session under ``base_dir``.

    Creates ``<base_dir>/<name>/`` (suffixed ``-2``, ``-3``, ... if the
    directory already holds a run), writes ``manifest.json``, and emits
    the ``run_start`` event. The caller activates it with
    :func:`use_telemetry` and must :meth:`Telemetry.close` it.
    """
    slug = _slug(name)
    run_dir = os.path.join(base_dir, slug)
    n = 1
    while os.path.exists(os.path.join(run_dir, "manifest.json")):
        n += 1
        run_dir = os.path.join(base_dir, f"{slug}-{n}")
    os.makedirs(run_dir, exist_ok=True)
    tel = Telemetry(
        events=RunLogger(run_dir),
        run_dir=run_dir,
        name=slug,
        flush_interval_s=flush_interval_s,
    )
    tel.write_manifest(**(manifest or {}))
    tel.emit("run_start", name=slug, wall_time=time.time())
    return tel

