"""Chrome-trace (catapult) export: simulated steps and telemetry runs.

Two exporters, both producing the Trace Event JSON format that loads in
Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``:

* :func:`placement_to_chrome_trace` — the per-device execution of **one
  simulated training step**, one track per device, one slice per op
  (the attribution's ``device_intervals``). Gives the interactive view
  that :func:`repro.analysis.render_attribution`'s ASCII Gantt chart
  only sketches.
* :func:`events_to_chrome_trace` — a **whole search run** from telemetry
  JSONL events (see ``docs/observability.md``): environment measurements
  and policy iterations as slices on the simulated clock, with counter
  tracks for best runtime, baseline, and entropy.

Usage::

    from repro.analysis.trace import placement_to_chrome_trace
    placement_to_chrome_trace(placement, path="step.trace.json")

    # From a telemetry run directory:
    from repro.telemetry import read_events
    from repro.analysis.trace import events_to_chrome_trace
    events_to_chrome_trace(read_events("runs/my-search"), path="run.trace.json")

    # ... or straight from the CLI:
    #   python -m repro.telemetry.report runs/my-search --trace run.trace.json

Open the written file in Perfetto: timestamps are microseconds of
*simulated* time, so slice durations compare directly with the paper's
Fig. 8 training-time axis.
"""

from __future__ import annotations

import json
import math
from typing import Iterable, Optional

from repro.sim import CostModel, Placement, Scheduler, attribute_schedule


def placement_to_chrome_trace(
    placement: Placement,
    cost_model: Optional[CostModel] = None,
    path: Optional[str] = None,
) -> dict:
    """Build (and optionally write) the trace document for one step."""
    graph = placement.graph
    attr = attribute_schedule(
        placement, Scheduler(cost_model).run_step(placement, trace=True)
    )
    events = []
    for pid, (device, intervals) in enumerate(
        zip(attr.device_names, attr.device_intervals)
    ):
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "args": {"name": device},
            }
        )
        for op, start, end in intervals:
            node = graph.nodes[op]
            events.append(
                {
                    "name": node.name,
                    "cat": node.op_type,
                    "ph": "X",
                    "pid": pid,
                    "tid": 0,
                    "ts": start * 1e6,  # microseconds
                    "dur": max((end - start) * 1e6, 0.01),
                    "args": {
                        "op_type": node.op_type,
                        "flops": node.flops,
                        "output_shape": list(node.output_shape),
                    },
                }
            )
    doc = {"traceEvents": events, "displayTimeUnit": "ms"}
    if path:
        with open(path, "w") as fh:
            json.dump(doc, fh)
    return doc


#: Track (pid) layout of the run-level trace.
_PID_ENV = 0
_PID_TRAINER = 1
_PID_PRETRAIN = 2
_PID_SPANS = 3


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def events_to_chrome_trace(
    events: Iterable[dict], path: Optional[str] = None
) -> dict:
    """Convert telemetry run events into a Chrome/Perfetto trace document.

    The simulated clock (``sim_clock`` on ``eval``/``iteration`` events)
    becomes the trace timebase:

    * **environment** track — one slice per placement measurement
      (``eval`` events; OOM and cutoff measurements are categorized so
      Perfetto can color them differently),
    * **trainer** track — one slice per policy iteration, with the
      iteration's sample/invalid counts in ``args``; ``update`` events
      appear as instant markers,
    * **pre-training** track — one slice per DGI iteration (unit width),
    * **spans** track — one slice per ``span`` event
      (``repro.telemetry.tracing``), one thread row per ``trace_id``, on
      the *wall* clock normalized to the earliest span start (span wall
      times and the simulated clock are different timebases; keeping them
      on a separate pid keeps both readable),
    * counter tracks — ``best_runtime``, ``baseline``, ``entropy``.

    ``events`` may be any iterable of event dicts — typically
    ``repro.telemetry.read_events(run_dir)``.
    """
    out = [
        {"name": "process_name", "ph": "M", "pid": _PID_ENV,
         "args": {"name": "environment (simulated clock)"}},
        {"name": "process_name", "ph": "M", "pid": _PID_TRAINER,
         "args": {"name": "trainer"}},
    ]
    prev_iter_clock = 0.0
    last_clock = 0.0
    seen_pretrain = False
    spans = []  # collected first; normalized to the earliest start below
    for event in events:
        etype = event.get("type")
        if etype == "eval":
            wall = event.get("wall_clock", 0.0)
            clock = event.get("sim_clock", 0.0)
            if not (_finite(wall) and _finite(clock)):
                continue
            last_clock = max(last_clock, clock)
            if not event.get("valid", True):
                category, name = "oom", "eval (OOM)"
            elif event.get("truncated", False):
                category, name = "cutoff", "eval (cutoff)"
            elif event.get("cached", False):
                category, name = "cached", "eval (cached)"
            else:
                category, name = "measure", "eval"
            out.append({
                "name": name,
                "cat": category,
                "ph": "X",
                "pid": _PID_ENV,
                "tid": 0,
                "ts": (clock - wall) * 1e6,
                "dur": max(wall * 1e6, 0.01),
                "args": {
                    "per_step_time": event.get("per_step_time"),
                    "makespan": event.get("makespan")
                    if _finite(event.get("makespan")) else None,
                    "comm_time": event.get("comm_time"),
                    "device_utilization": event.get("device_utilization"),
                },
            })
        elif etype == "iteration":
            clock = event.get("sim_clock", 0.0)
            if not _finite(clock):
                continue
            last_clock = max(last_clock, clock)
            out.append({
                "name": f"iteration {event.get('iteration')}",
                "cat": "iteration",
                "ph": "X",
                "pid": _PID_TRAINER,
                "tid": 0,
                "ts": prev_iter_clock * 1e6,
                "dur": max((clock - prev_iter_clock) * 1e6, 0.01),
                "args": {
                    "samples": event.get("samples"),
                    "n_invalid": event.get("n_invalid"),
                    "n_truncated": event.get("n_truncated"),
                    "wall_seconds": event.get("wall_seconds"),
                },
            })
            for counter, value in (
                ("best_runtime", event.get("best_runtime")),
                ("baseline", event.get("baseline")),
            ):
                if _finite(value):
                    out.append({
                        "name": counter, "ph": "C", "pid": _PID_TRAINER,
                        "ts": clock * 1e6, "args": {counter: value},
                    })
            prev_iter_clock = clock
        elif etype == "update":
            out.append({
                "name": "update",
                "cat": "update",
                "ph": "i",
                "s": "t",
                "pid": _PID_TRAINER,
                "tid": 0,
                "ts": prev_iter_clock * 1e6,
                "args": {
                    "entropy": event.get("entropy"),
                    "clip_fraction": event.get("clip_fraction"),
                    "approx_kl": event.get("approx_kl"),
                },
            })
            if _finite(event.get("entropy")):
                out.append({
                    "name": "entropy", "ph": "C", "pid": _PID_TRAINER,
                    "ts": prev_iter_clock * 1e6,
                    "args": {"entropy": event.get("entropy")},
                })
        elif etype == "pretrain":
            if not seen_pretrain:
                seen_pretrain = True
                out.append({"name": "process_name", "ph": "M",
                            "pid": _PID_PRETRAIN,
                            "args": {"name": "DGI pre-training"}})
            it = event.get("iteration", 0)
            out.append({
                "name": "dgi step",
                "cat": "pretrain",
                "ph": "X",
                "pid": _PID_PRETRAIN,
                "tid": 0,
                "ts": float(it) * 1e6,
                "dur": 1e6,
                "args": {"loss": event.get("loss"),
                         "best_loss": event.get("best_loss")},
            })
        elif etype == "span":
            if _finite(event.get("start_unix")) and _finite(event.get("duration_s")):
                spans.append(event)
    if spans:
        out.append({"name": "process_name", "ph": "M", "pid": _PID_SPANS,
                    "args": {"name": "spans (wall clock)"}})
        t0 = min(event["start_unix"] for event in spans)
        # One thread row per trace: concurrent requests stack instead of
        # overlapping into one unreadable lane.
        tids = {}
        for event in spans:
            trace_id = event.get("trace_id", "")
            tid = tids.setdefault(trace_id, len(tids))
            out.append({
                "name": event.get("name", "span"),
                "cat": event.get("status", "ok"),
                "ph": "X",
                "pid": _PID_SPANS,
                "tid": tid,
                "ts": (event["start_unix"] - t0) * 1e6,
                "dur": max(event["duration_s"] * 1e6, 0.01),
                "args": {
                    "trace_id": trace_id,
                    "span_id": event.get("span_id"),
                    "parent_id": event.get("parent_id"),
                    "status": event.get("status"),
                },
            })
        for trace_id, tid in tids.items():
            out.append({"name": "thread_name", "ph": "M", "pid": _PID_SPANS,
                        "tid": tid, "args": {"name": f"trace {trace_id}"}})
    doc = {"traceEvents": out, "displayTimeUnit": "ms"}
    if path:
        with open(path, "w") as fh:
            json.dump(doc, fh)
    return doc
