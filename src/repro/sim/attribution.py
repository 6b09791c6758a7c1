"""Placement attribution: where a placement's step time actually goes.

Given one traced schedule (``Scheduler.run_step(..., trace=True)``) this
module reconstructs, exactly and deterministically:

* per-device **busy/idle** accounting over the step,
* the **realized critical path** — the chain of op executions and tensor
  transfers whose lengths sum to the step's span, found by walking back
  from the last-finishing op through whichever constraint (input arrival,
  inter-device transfer, or device serialization) bound each start time,
* a cross-device **traffic matrix** (bytes shipped per device pair), and
* the **comm-bound fraction** — the share of the critical path spent on
  links rather than compute, the quantity Mirhoseini et al. and Placeto
  read off per-device timelines to diagnose comm-bound placements.

The walk is a pure function of the schedule: every op started either when
its last input arrived (same-device dependency or transfer arrival) or
when its device finished the previous op, so the binding constraint is
the candidate with the maximal release time. Segments therefore tile
``[0, span]`` contiguously — an invariant the property tests pin down.

``PlacementEnv.attribute`` / ``record_attribution`` wrap this for the RL
loop (best-placement ``attribution`` events + ``env.critical_path_*``
metrics); ``repro.analysis.attribution`` renders the result as a text
Gantt and top-k tables for ``python -m repro.telemetry.report``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.sim.placement import Placement
from repro.sim.scheduler import ScheduleResult, TransferRecord

#: Release-time tolerance when matching a start time to its constraint.
_EPS = 1e-9

#: Default cap on per-device intervals serialized into an event payload.
MAX_EVENT_INTERVALS = 256


@dataclass(frozen=True)
class PathSegment:
    """One link of the realized critical path, source-first ordering.

    ``kind`` is ``"op"`` (execution of ``op`` on ``device``) or ``"comm"``
    (shipment of ``op``'s output from ``device`` to ``dst_device``,
    including any time the tensor waited for the link). ``reason`` records
    what released the segment's start: ``"source"`` (graph input),
    ``"dep"`` (same-device input), ``"comm"`` (transfer arrival) or
    ``"device"`` (device busy with the previous op).
    """

    kind: str
    op: int
    device: int
    start: float
    end: float
    reason: str
    dst_device: int = -1  # comm segments only

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class PlacementAttribution:
    """Full diagnostic breakdown of one placed step."""

    makespan: float  # span + cluster step overhead (what the agent sees)
    span: float  # last op finish time; the critical path's length
    device_names: List[str]
    device_busy: np.ndarray  # seconds executing, per device
    device_idle: np.ndarray  # span - busy, per device
    device_op_counts: np.ndarray
    device_intervals: List[List[Tuple[int, float, float]]]  # (op, start, end)
    path: List[PathSegment] = field(default_factory=list)
    traffic_bytes: Optional[np.ndarray] = None  # (D, D), src x dst
    comm_time: float = 0.0  # total link seconds (all transfers)
    comm_bytes: float = 0.0

    @property
    def critical_path_time(self) -> float:
        return sum(s.duration for s in self.path)

    @property
    def comm_bound_fraction(self) -> float:
        """Share of the critical path spent shipping tensors."""
        total = self.critical_path_time
        if total <= 0:
            return 0.0
        comm = sum(s.duration for s in self.path if s.kind == "comm")
        return comm / total

    @property
    def utilization(self) -> float:
        """Mean busy fraction over the makespan — matches the
        ``env.device_utilization`` that :class:`repro.sim.env.PlacementEnv`
        records per measurement."""
        if self.makespan <= 0:
            return 0.0
        return float(np.mean(self.device_busy) / self.makespan)

    def top_critical_ops(self, k: int = 10) -> List[PathSegment]:
        """The ``k`` longest op executions on the critical path."""
        ops = [s for s in self.path if s.kind == "op"]
        return sorted(ops, key=lambda s: s.duration, reverse=True)[:k]

    # ------------------------------------------------------------------
    def event_payload(
        self,
        graph=None,
        iteration: int = -1,
        top_k: int = 10,
        max_intervals: int = MAX_EVENT_INTERVALS,
    ) -> Dict:
        """JSON-safe dict for the schema-versioned ``attribution`` event.

        Per-device busy intervals are coalesced (and, past
        ``max_intervals``, coarsened by merging the smallest idle gaps) so
        the payload stays bounded on large graphs while still rendering a
        faithful Gantt.
        """

        def op_name(op: int) -> str:
            if graph is not None:
                return graph.nodes[op].name
            return f"op{op}"

        devices = []
        for d, name in enumerate(self.device_names):
            spans = coalesce_intervals(
                [(s, e) for _, s, e in self.device_intervals[d]],
                max_intervals=max_intervals,
            )
            devices.append(
                {
                    "name": name,
                    "busy": float(self.device_busy[d]),
                    "idle": float(self.device_idle[d]),
                    "ops": int(self.device_op_counts[d]),
                    "intervals": [[float(s), float(e)] for s, e in spans],
                }
            )
        top_ops = [
            {
                "op": int(s.op),
                "name": op_name(s.op),
                "device": self.device_names[s.device],
                "time": float(s.duration),
                "reason": s.reason,
            }
            for s in self.top_critical_ops(top_k)
        ]
        traffic = (
            [[float(b) for b in row] for row in self.traffic_bytes]
            if self.traffic_bytes is not None
            else []
        )
        return {
            "iteration": int(iteration),
            "makespan": float(self.makespan),
            "critical_path_time": float(self.critical_path_time),
            "comm_bound_fraction": float(self.comm_bound_fraction),
            "utilization": float(self.utilization),
            "comm_time": float(self.comm_time),
            "comm_bytes": float(self.comm_bytes),
            "path_ops": sum(1 for s in self.path if s.kind == "op"),
            "path_comms": sum(1 for s in self.path if s.kind == "comm"),
            "devices": devices,
            "top_ops": top_ops,
            "traffic_bytes": traffic,
        }


def coalesce_intervals(
    spans: List[Tuple[float, float]],
    eps: float = 1e-9,
    max_intervals: int = MAX_EVENT_INTERVALS,
) -> List[Tuple[float, float]]:
    """Merge touching/overlapping spans; coarsen to ``max_intervals``.

    Coarsening merges across the *smallest* idle gaps first, so the
    rendered Gantt loses only visually-invisible detail.
    """
    if not spans:
        return []
    spans = sorted(spans)
    merged: List[List[float]] = [list(spans[0])]
    for s, e in spans[1:]:
        if s <= merged[-1][1] + eps:
            merged[-1][1] = max(merged[-1][1], e)
        else:
            merged.append([s, e])
    while len(merged) > max(1, max_intervals):
        gaps = [merged[i + 1][0] - merged[i][1] for i in range(len(merged) - 1)]
        i = int(np.argmin(gaps))
        merged[i][1] = merged[i + 1][1]
        del merged[i + 1]
    return [(s, e) for s, e in merged]


def attribute_schedule(
    placement: Placement, schedule: ScheduleResult
) -> PlacementAttribution:
    """Derive a :class:`PlacementAttribution` from one traced schedule.

    ``schedule`` must come from ``Scheduler.run_step(..., trace=True)``
    (it needs ``start_times`` and ``transfers``).
    """
    if schedule.start_times is None or schedule.transfers is None:
        raise ValueError(
            "attribution needs a traced schedule: Scheduler.run_step(..., trace=True)"
        )
    graph, cluster = placement.graph, placement.cluster
    n = graph.num_nodes
    num_devices = cluster.num_devices
    devices = placement.devices
    starts = schedule.start_times
    finishes = schedule.finish_times
    names = [d.name for d in cluster.devices]

    span = float(finishes.max()) if n else 0.0

    # Per-device interval lists, sorted by start time.
    intervals: List[List[Tuple[int, float, float]]] = [[] for _ in range(num_devices)]
    dev_of, start_of, finish_of = devices.tolist(), starts.tolist(), finishes.tolist()
    for op in np.argsort(starts, kind="stable").tolist():
        intervals[dev_of[op]].append((op, start_of[op], finish_of[op]))
    op_counts = np.bincount(devices, minlength=num_devices)
    idle = np.maximum(span - schedule.device_busy, 0.0)

    # Traffic matrix + transfer lookup keyed like the scheduler dedupes:
    # one shipment per (producer, dst_device).
    traffic = np.zeros((num_devices, num_devices))
    arrival: Dict[Tuple[int, int], TransferRecord] = {}
    for tr in schedule.transfers:
        traffic[tr.src, tr.dst] += tr.nbytes
        arrival[(tr.producer, tr.dst)] = tr

    # Previous-op-on-device lookup: for op v, the op that freed v's device.
    prev_on_device: Dict[int, int] = {}
    for d in range(num_devices):
        for i in range(1, len(intervals[d])):
            prev_on_device[intervals[d][i][0]] = intervals[d][i - 1][0]

    path: List[PathSegment] = []
    if n:
        op = int(np.argmax(finishes))
        while True:
            dev = dev_of[op]
            # Candidates that could have released this op's start.
            best_time = -1.0
            best: Optional[Tuple[str, int]] = None  # (reason, predecessor op)
            for pred in graph.predecessors(op):
                pred = int(pred)
                if dev_of[pred] == dev:
                    t = finish_of[pred]
                    if t > best_time:
                        best_time, best = t, ("dep", pred)
                else:
                    tr = arrival.get((pred, dev))
                    if tr is not None and tr.end > best_time:
                        best_time, best = tr.end, ("comm", pred)
            prev = prev_on_device.get(op)
            if prev is not None and finish_of[prev] > best_time + _EPS:
                best_time, best = finish_of[prev], ("device", prev)

            reason = best[0] if best is not None and best_time > _EPS else "source"
            path.append(
                PathSegment(
                    kind="op",
                    op=op,
                    device=dev,
                    start=start_of[op],
                    end=finish_of[op],
                    reason=reason,
                )
            )
            if best is None or best_time <= _EPS:
                break
            kind, pred = best
            if kind == "comm":
                tr = arrival[(pred, dev)]
                # The comm segment starts when the tensor became ready on
                # its producer (so the path tiles contiguously); any link
                # queueing is inside the segment — it *is* comm cost.
                path.append(
                    PathSegment(
                        kind="comm",
                        op=pred,
                        device=tr.src,
                        start=finish_of[pred],
                        end=tr.end,
                        reason="comm",
                        dst_device=tr.dst,
                    )
                )
            op = pred
        path.reverse()

    return PlacementAttribution(
        makespan=schedule.makespan,
        span=span,
        device_names=names,
        device_busy=schedule.device_busy.copy(),
        device_idle=idle,
        device_op_counts=op_counts,
        device_intervals=intervals,
        path=path,
        traffic_bytes=traffic,
        comm_time=float(schedule.comm_time),
        comm_bytes=float(schedule.comm_bytes),
    )
