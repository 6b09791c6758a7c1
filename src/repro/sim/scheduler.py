"""Deterministic event-driven scheduler producing the per-step makespan.

Ops execute on their assigned device once all inputs have *arrived* there
(the TF executor's dataflow firing rule); inputs produced on another
device pay a transfer on the serialized link between the two devices, and
a producer's output is shipped to each consuming device at most once.

The simulation is event-driven: a single event heap orders op completions
and tensor arrivals; each device runs one ready op at a time, picking the
ready op with the smallest topological index (deterministic
tie-breaking). This is what lets independent devices overlap — the
cell-level pipelining that makes model-parallel RNN placements pay off —
at O((V + E) log(V + E)) per simulated step.

This module holds the simulator's only event loop (:func:`_simulate`).
It runs on :class:`ScheduleTables` — the graph, op times and per-op
transfer times lowered once to nested Python lists, which beat
per-element ndarray indexing by a large constant factor.
"""

from __future__ import annotations

from dataclasses import dataclass
import heapq
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.graph import CompGraph
from repro.sim.cluster import ClusterSpec
from repro.sim.costmodel import CostModel
from repro.sim.placement import Placement


@dataclass(frozen=True)
class TransferRecord:
    """One inter-device tensor shipment (recorded when tracing)."""

    producer: int  # op whose output was shipped
    src: int  # device the tensor left
    dst: int  # device the tensor arrived on
    start: float  # link occupation start (after any queueing)
    end: float  # arrival time on dst
    nbytes: float


@dataclass
class ScheduleResult:
    """Outcome of simulating one training step."""

    makespan: float
    finish_times: np.ndarray
    device_busy: np.ndarray  # seconds of execution per device
    comm_time: float  # total seconds spent on links
    comm_bytes: float  # total bytes shipped between devices
    start_times: Optional[np.ndarray] = None  # per-op start (for timelines)
    transfers: Optional[List[TransferRecord]] = None  # only with trace=True


class ScheduleTables:
    """Graph/cluster/cost invariants lowered to Python-native structures.

    Built once per (graph, cluster, cost model, op-time table) — a
    :class:`repro.sim.env.PlacementEnv` builds one and reuses it for every
    placement it simulates. The values are the *same*
    float64 objects ``.tolist()`` produces, so the event loop's arithmetic
    is bit-identical to the cost model's. ``transfer[src][dst][op]`` is
    :meth:`CostModel.transfer_time` of ``op``'s output on that link (see
    :meth:`CostModel.transfer_time_table`), and ``link_index[a][b]`` is
    ``lo * D + hi`` for the undirected link between devices ``a`` and
    ``b``. ``succ`` holds the graph's own successor lists, read-only.
    """

    __slots__ = (
        "n",
        "num_devices",
        "op_times",
        "succ",
        "in_degree",
        "out_bytes",
        "transfer",
        "link_index",
        "step_overhead",
    )

    def __init__(
        self,
        graph: CompGraph,
        cluster: ClusterSpec,
        cost_model: CostModel,
        op_times: np.ndarray,
    ):
        n = graph.num_nodes
        self.n = n
        self.num_devices = cluster.num_devices
        self.op_times: List[List[float]] = np.asarray(op_times, dtype=np.float64).tolist()
        self.succ: List[List[int]] = [graph.successors(i) for i in range(n)]
        self.in_degree: List[int] = [len(graph.predecessors(i)) for i in range(n)]
        out_bytes = np.array([node.output_bytes for node in graph.nodes], dtype=np.float64)
        self.out_bytes: List[float] = out_bytes.tolist()
        # Rows with equal contents (all pairs of a uniform interconnect,
        # both directions of a symmetric link) share one read-only list.
        rows: Dict[bytes, List[float]] = {}
        self.transfer: List[List[List[float]]] = []
        for per_dst in cost_model.transfer_time_table(out_bytes, cluster):
            self.transfer.append([])
            for row in per_dst:
                key = row.tobytes()
                if key not in rows:
                    rows[key] = row.tolist()
                self.transfer[-1].append(rows[key])
        d = self.num_devices
        self.link_index: List[List[int]] = [
            [min(a, b) * d + max(a, b) for b in range(d)] for a in range(d)
        ]
        self.step_overhead = cluster.step_overhead


def _simulate(
    tables: ScheduleTables,
    devices: List[int],
    transfers: Optional[List[TransferRecord]] = None,
) -> ScheduleResult:
    """Run the event loop from the initial state to exhaustion.

    Event heap entries are ``(time, seq, code)``: ``code = op`` for the
    completion of ``op`` on its device, ``code = ~(op * D + dst)`` for the
    arrival of ``op``'s output on device ``dst`` (``D`` devices). ``seq``
    is unique, so it alone breaks time ties and ``code`` is never compared.
    ``remaining[v]`` counts inputs not yet arrived on v's device; an edge
    u->v with u on another device completes only when the (u, dst)
    transfer arrives, which satisfies every consumer of u on dst.

    Two invariants keep the per-event work small:

    * between events, an idle device has an empty ready queue, so an op
      that becomes ready on an idle device starts at once, without a trip
      through the queue;
    * an idle device's last completion has already been popped, so an op
      always starts at ``now``.

    ``transfers``, when given, receives a :class:`TransferRecord` per
    cross-device shipment.
    """
    n = tables.n
    num_devices = tables.num_devices
    op_times = tables.op_times
    succ = tables.succ
    out_bytes = tables.out_bytes
    transfer = tables.transfer
    link_index = tables.link_index
    finish = [0.0] * n
    starts = [0.0] * n
    device_busy = [0.0] * num_devices
    device_ready: List[List[int]] = [[] for _ in range(num_devices)]
    device_running = [False] * num_devices
    link_free = [0.0] * (num_devices * num_devices)
    remaining = list(tables.in_degree)
    # (op * D + dst) -> consumers of op on dst waiting for its arrival.
    waiting: Dict[int, List[int]] = {}
    events: List[Tuple[float, int, int]] = []
    seq = 0
    comm_time = 0.0
    comm_bytes = 0.0
    heappush, heappop, heappushpop = heapq.heappush, heapq.heappop, heapq.heappushpop

    # Source ops are ready at t=0: each device starts its first one and
    # queues the rest.
    for op in range(n):
        if remaining[op] == 0:
            dev = devices[op]
            if device_running[dev]:
                heappush(device_ready[dev], op)
            else:
                duration = op_times[op][dev]
                finish[op] = duration
                device_busy[dev] += duration
                device_running[dev] = True
                heappush(events, (duration, seq, op))
                seq += 1

    while events:
        now, _, code = heappop(events)
        if code >= 0:  # op `code` completed
            op = code
            dev = devices[op]
            device_running[dev] = False
            for s in succ[op]:
                dst = devices[s]
                if dst == dev:
                    remaining[s] -= 1
                    if remaining[s] == 0:
                        if device_running[dev]:
                            heappush(device_ready[dev], s)
                            continue
                        # The freed device may still hold queued ops:
                        # start the smallest of them and s.
                        ready = device_ready[dev]
                        nxt = heappushpop(ready, s) if ready else s
                        duration = op_times[nxt][dev]
                        end = now + duration
                        starts[nxt] = now
                        finish[nxt] = end
                        device_busy[dev] += duration
                        device_running[dev] = True
                        heappush(events, (end, seq, nxt))
                        seq += 1
                else:
                    key = op * num_devices + dst
                    consumers = waiting.get(key)
                    if consumers is not None:
                        consumers.append(s)
                        continue
                    waiting[key] = [s]
                    link = link_index[dev][dst]
                    duration = transfer[dev][dst][op]
                    queued = link_free[link]
                    start = now if now > queued else queued
                    end = start + duration
                    link_free[link] = end
                    comm_time += duration
                    comm_bytes += out_bytes[op]
                    if transfers is not None:
                        transfers.append(
                            TransferRecord(op, dev, dst, start, end, out_bytes[op])
                        )
                    heappush(events, (end, seq, ~key))
                    seq += 1
            # Start the next queued op on the freed device, unless a
            # same-device successor already restarted it above.
            if not device_running[dev] and device_ready[dev]:
                nxt = heappop(device_ready[dev])
                duration = op_times[nxt][dev]
                end = now + duration
                starts[nxt] = now
                finish[nxt] = end
                device_busy[dev] += duration
                device_running[dev] = True
                heappush(events, (end, seq, nxt))
                seq += 1
        else:  # a tensor arrived on a device
            for s in waiting.pop(~code):
                remaining[s] -= 1
                if remaining[s] == 0:
                    dst = devices[s]
                    if device_running[dst]:
                        heappush(device_ready[dst], s)
                        continue
                    duration = op_times[s][dst]
                    end = now + duration
                    starts[s] = now
                    finish[s] = end
                    device_busy[dst] += duration
                    device_running[dst] = True
                    heappush(events, (end, seq, s))
                    seq += 1

    if any(remaining):  # pragma: no cover - defensive
        raise RuntimeError("scheduler deadlock: graph has a cycle?")
    finish_arr = np.array(finish, dtype=np.float64)
    makespan = float(finish_arr.max()) + tables.step_overhead if n else 0.0
    return ScheduleResult(
        makespan=makespan,
        finish_times=finish_arr,
        device_busy=np.array(device_busy, dtype=np.float64),
        comm_time=float(comm_time),
        comm_bytes=float(comm_bytes),
        start_times=np.array(starts, dtype=np.float64),
        transfers=transfers,
    )


class Scheduler:
    """Simulates the execution of a placed graph."""

    def __init__(self, cost_model: Optional[CostModel] = None):
        self.cost_model = cost_model or CostModel()

    def run_step(
        self,
        placement: Placement,
        op_times: Optional[np.ndarray] = None,
        trace: bool = False,
        tables: Optional[ScheduleTables] = None,
    ) -> ScheduleResult:
        """Simulate one training step; returns the makespan and stats.

        Event-driven dataflow execution, like the TF executor: an op is
        *ready* once all its inputs have arrived on its device; each device
        runs one ready op at a time, picking the ready op with the smallest
        topological index (deterministic tie-breaking). This allows
        cell-level pipelining across devices — essential for modeling
        model-parallel RNN placements correctly.

        ``tables`` are the placement's graph and cluster lowered by
        :class:`ScheduleTables`; callers that simulate many placements of
        one graph (``PlacementEnv``) build them once and pass them in.
        Without them, tables are built for this call from ``op_times`` — a
        precomputed ``(num_ops, num_devices)`` table (see
        :meth:`CostModel.op_time_matrix`) — or from the cost model.

        ``trace=True`` additionally records every inter-device shipment as
        a :class:`TransferRecord` on ``ScheduleResult.transfers`` — the
        input the attribution engine (``sim/attribution.py``) needs to
        reconstruct the realized critical path. The hot RL path leaves it
        off; the record list is the only extra work.
        """
        if tables is None:
            graph, cluster = placement.graph, placement.cluster
            if op_times is None:
                op_times = self.cost_model.op_time_matrix(graph, cluster)
            tables = ScheduleTables(graph, cluster, self.cost_model, op_times)
        devices = placement.devices.tolist()
        transfers: Optional[List[TransferRecord]] = [] if trace else None
        return _simulate(tables, devices, transfers)
