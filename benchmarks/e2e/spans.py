"""Outside-in span recorder for the end-to-end benchmark.

The benchmark times the layers of ``repro`` without changing the package:
:func:`install` replaces a fixed set of public functions with wrappers
that record a span (name, start, end, parent, trace id, thread) around
each call, and :meth:`Tracer.uninstall` puts the originals back. Spans
stay in memory; :meth:`Tracer.write_chrome_trace` writes them out as a
Chrome trace (open it in https://ui.perfetto.dev), and
:meth:`Tracer.layer_table` reduces them to per-layer calls, inclusive
time, self time and share of wall time.

A span opened while no other span is open on its thread starts a new
trace; nested spans inherit the trace id. Spans carry the *phase* that
was current when they opened (``setup`` or ``measure``), so set-up work
such as DGI pre-training is reported against set-up wall time and
everything else against measured wall time.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import threading
import time
from typing import Callable, Dict, List, Optional

#: Every timed layer and the end-to-end metric (on which workload) it
#: should move; README.md names the public call each one wraps. A timed
#: layer is reported as ``<layer>_s`` (median seconds per call) and
#: ``<layer>_share`` (inclusive time / wall time of its phase).
TIMED_LAYERS: Dict[str, str] = {
    "rl.sample": "throughput_per_s on search_*; latency_p95_ms on serve_mixed",
    "rl.update": "throughput_per_s on search_*",
    "gnn.encode": "throughput_per_s on search_*",
    "gnn.pretrain": "setup_s on search_*",
    "placers.decode": "throughput_per_s on search_*; latency_p95_ms on serve_mixed",
    "placers.score": "throughput_per_s on search_*",
    "nn.backward": "throughput_per_s on search_*; peak_rss_mb on search_bert_wide",
    "nn.optim_step": "throughput_per_s on search_*",
    "nn.clip_grad": "throughput_per_s on search_*",
    "sim.evaluate": "throughput_per_s on refine_gnmt",
    "sim.run_step": "throughput_per_s on refine_gnmt",
    "sim.evaluate_batch": "throughput_per_s on search_*; latency_p95_ms on serve_mixed",
    "graph.parse": "latency_p50_ms on serve_mixed",
    "graph.fingerprint": "latency_p50_ms on serve_mixed",
    "serve.handle_hit": "latency_p50_ms on serve_mixed",
    "serve.handle_miss": "latency_p95_ms and throughput_per_s on serve_mixed",
    "serve.registry_load": "latency_p95_ms on serve_mixed",
}

#: Per-layer counts and ratios (README.md defines each) and their units.
OTHER_LAYER_UNITS: Dict[str, str] = {
    "rl.updates": "count",
    "rl.passes": "count",
    "sim.cache_hit_frac": "frac",
    "sim.incremental_hit_frac": "frac",
    "serve.wait_s": "s",
    "serve.hit_frac": "frac",
    "serve.coalesced_frac": "frac",
    "sim.clock_h": "h",
    "trace.overhead_frac": "frac",
}


def layer_metric_units() -> Dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units = {}
    for layer in TIMED_LAYERS:
        units[f"{layer}_s"] = "s"
        units[f"{layer}_share"] = "frac"
    units.update(OTHER_LAYER_UNITS)
    return units


def env_metrics(stats_list) -> Dict[str, float]:
    """Simulator ratios and clock from :class:`repro.sim.env.EnvStats`."""
    stats_list = list(stats_list)
    evaluations = sum(s.evaluations for s in stats_list)
    hits = sum(s.incremental_hits for s in stats_list)
    tries = hits + sum(s.incremental_fallbacks for s in stats_list)
    return {
        "sim.cache_hit_frac": sum(s.cache_hits for s in stats_list) / max(evaluations, 1),
        "sim.incremental_hit_frac": hits / max(tries, 1),
        "sim.clock_h": sum(s.wall_clock for s in stats_list) / 3600.0,
    }


class Span:
    __slots__ = ("name", "start", "end", "span_id", "parent_id", "trace_id",
                 "tid", "phase", "child_time")

    def __init__(self, name, start, span_id, parent_id, trace_id, tid, phase):
        self.name = name
        self.start = start
        self.end = start
        self.span_id = span_id
        self.parent_id = parent_id
        self.trace_id = trace_id
        self.tid = tid
        self.phase = phase
        self.child_time = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory spans, per-thread span stacks and phase wall clocks."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        self.phase: Optional[str] = None
        self.phase_wall: Dict[str, float] = {}
        self._phase_start = time.perf_counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = 0
        self._traces = 0
        self._patches: list = []
        self.origin = time.perf_counter()

    # -- phases -------------------------------------------------------
    def set_phase(self, phase: Optional[str]) -> None:
        """Close the current phase's wall-clock interval and open
        ``phase`` (``None`` stops the clock until the next call)."""
        now = time.perf_counter()
        if self.phase is not None:
            self.phase_wall[self.phase] = (
                self.phase_wall.get(self.phase, 0.0) + now - self._phase_start
            )
        self.phase = phase
        self._phase_start = now

    # -- spans --------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            self._ids += 1
            span_id = self._ids
            if parent is None:
                self._traces += 1
            trace_id = parent.trace_id if parent else self._traces
        span = Span(
            name,
            time.perf_counter(),
            span_id,
            parent.span_id if parent else 0,
            trace_id,
            threading.get_ident(),
            self.phase,
        )
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1].child_time += span.duration
        with self._lock:
            self.spans.append(span)

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open on this thread."""
        return any(s.name == name for s in self._stack())

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0.0) + value

    # -- wrapping -----------------------------------------------------
    def wrap(
        self,
        owner,
        attr: str,
        name,
        on_result: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``name`` is a layer name or a callable returning one at call time;
        ``on_result(span, result)`` may rename the span or count work.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        fn = getattr(owner, attr)
        tracer = self
        namer = name if callable(name) else (lambda: name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(namer())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if on_result is not None:
                on_result(span, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reports ------------------------------------------------------
    def layer_table(self) -> List[dict]:
        """One row per span name: calls, inclusive and self seconds,
        median seconds per call and share of its phase's wall time.
        Rows use the measured phase; a layer that only ran during set-up
        is reported against set-up wall time."""
        by_phase: Dict[tuple, List[Span]] = {}
        for span in self.spans:
            by_phase.setdefault((span.name, span.phase), []).append(span)
        rows = []
        for name in sorted({n for n, _ in by_phase}):
            phase = "measure" if (name, "measure") in by_phase else "setup"
            spans = by_phase.get((name, phase), [])
            wall = self.phase_wall.get(phase, 0.0)
            total = sum(s.duration for s in spans)
            rows.append({
                "layer": name,
                "phase": phase,
                "calls": len(spans),
                "total_s": total,
                "self_s": sum(s.duration - s.child_time for s in spans),
                "median_s": statistics.median(s.duration for s in spans),
                "share": total / wall if wall > 0 else 0.0,
            })
        return rows

    def layer_metrics(self) -> Dict[str, float]:
        """``<layer>_s`` and ``<layer>_share`` for every timed layer, 0.0
        when the workload never calls it."""
        rows = {row["layer"]: row for row in self.layer_table()}
        out = {}
        for layer in TIMED_LAYERS:
            row = rows.get(layer)
            out[f"{layer}_s"] = row["median_s"] if row else 0.0
            out[f"{layer}_share"] = row["share"] if row else 0.0
        return out

    def write_chrome_trace(self, path: str) -> None:
        tids: Dict[int, int] = {}
        events = []
        for span in sorted(self.spans, key=lambda s: s.start):
            tid = tids.setdefault(span.tid, len(tids))
            events.append({
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ph": "X",
                "ts": (span.start - self.origin) * 1e6,
                "dur": span.duration * 1e6,
                "pid": os.getpid(),
                "tid": tid,
                "args": {
                    "span_id": span.span_id,
                    "parent_id": span.parent_id,
                    "trace_id": span.trace_id,
                    "phase": span.phase,
                },
            })
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def format_layer_table(rows: List[dict]) -> str:
    """The self-time table, largest self time first."""
    lines = [
        f"{'layer':<22} {'phase':<8} {'calls':>7} {'median_ms':>10} "
        f"{'total_s':>9} {'self_s':>9} {'share':>7}  moves"
    ]
    for row in sorted(rows, key=lambda r: -r["self_s"]):
        lines.append(
            f"{row['layer']:<22} {row['phase']:<8} {row['calls']:>7} "
            f"{row['median_s'] * 1e3:>10.3f} {row['total_s']:>9.3f} "
            f"{row['self_s']:>9.3f} {row['share']:>7.1%}  "
            f"{TIMED_LAYERS.get(row['layer'], '')}"
        )
    return "\n".join(lines)


def install(tracer: Tracer) -> Tracer:
    """Wrap every public call named in :data:`TIMED_LAYERS`."""
    import repro.core.agents as agents
    import repro.rl.ppo as ppo
    import repro.serve.service as service
    from repro.graph.graph import CompGraph
    from repro.nn.optim import Optimizer
    from repro.nn.tensor import Tensor
    from repro.placers.base import Placer
    from repro.serve.registry import PolicyRegistry
    from repro.sim.env import PlacementEnv
    from repro.sim.scheduler import Scheduler

    def count_update(span, stats):
        tracer.count("rl.updates")
        tracer.count("rl.passes", stats.passes)

    def split_handle(span, response):
        # A coalesced response waited on an in-flight miss.
        span.name = "serve.handle_hit" if response.cache == "hit" else "serve.handle_miss"

    def placer_layer():
        return "placers.decode" if tracer.inside("rl.sample") else "placers.score"

    policy = agents.EncoderPlacerPolicy
    tracer.wrap(policy, "sample", "rl.sample")
    tracer.wrap(policy, "node_representations", "gnn.encode")
    tracer.wrap(ppo.PPOUpdater, "update", "rl.update", on_result=count_update)
    tracer.wrap(agents, "pretrain_encoder", "gnn.pretrain")
    for cls in _subclasses(Placer):
        if "run" in cls.__dict__:
            tracer.wrap(cls, "run", placer_layer)
    tracer.wrap(Tensor, "backward", "nn.backward")
    for cls in _subclasses(Optimizer):
        if "step" in cls.__dict__:
            tracer.wrap(cls, "step", "nn.optim_step")
    tracer.wrap(ppo, "clip_grad_norm", "nn.clip_grad")
    tracer.wrap(PlacementEnv, "evaluate", "sim.evaluate")
    tracer.wrap(PlacementEnv, "evaluate_batch", "sim.evaluate_batch")
    tracer.wrap(Scheduler, "run_step", "sim.run_step")
    tracer.wrap(service, "graph_from_dict", "graph.parse")
    tracer.wrap(CompGraph, "fingerprint", "graph.fingerprint")
    tracer.wrap(service.PlacementService, "handle", "serve.handle",
                on_result=split_handle)
    tracer.wrap(PolicyRegistry, "load", "serve.registry_load")
    return tracer


def _subclasses(cls) -> list:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out
