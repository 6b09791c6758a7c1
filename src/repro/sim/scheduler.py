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

This module holds the simulator's only event loop (:func:`_drain`). It
runs on :class:`ScheduleTables` — the graph, op times and per-op transfer
times lowered once to nested Python lists, which beat per-element ndarray
indexing by a large constant factor. :meth:`Scheduler.run_step` drains it
from the initial state; the incremental fast path
(``sim/incremental.py``) drains it from a snapshot of a baseline run.
"""

from __future__ import annotations

from dataclasses import dataclass
import heapq
from typing import Dict, List, Optional, Set, Tuple

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
    :class:`repro.sim.env.PlacementEnv` builds one and shares it between
    full simulations and incremental resumes. The values are the *same*
    float64 objects ``.tolist()`` produces, so the event loop's arithmetic
    is bit-identical to the cost model's. ``transfer[src][dst][op]`` is
    :meth:`CostModel.transfer_time` of ``op``'s output on that link (see
    :meth:`CostModel.transfer_time_table`).
    """

    __slots__ = (
        "n",
        "num_devices",
        "op_times",
        "succ",
        "pred",
        "in_degree",
        "out_bytes",
        "transfer",
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
        self.succ: List[List[int]] = [list(graph.successors(i)) for i in range(n)]
        self.pred: List[List[int]] = [list(graph.predecessors(i)) for i in range(n)]
        self.in_degree: List[int] = [len(p) for p in self.pred]
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
        self.step_overhead = cluster.step_overhead


@dataclass
class _SimState:
    """Full simulator state between two processed events."""

    events_done: int
    finish: List[float]
    starts: List[float]
    device_free: List[float]
    device_busy: List[float]
    device_ready: List[List[int]]
    device_running: List[bool]
    link_free: Dict[Tuple[int, int], float]
    shipped: Set[Tuple[int, int]]
    remaining: List[int]
    comm_time: float
    comm_bytes: float
    heap: List[tuple]
    seq: int
    consumers_waiting: Dict[Tuple[int, int], List[int]]

    def copy(self) -> "_SimState":
        return _SimState(
            events_done=self.events_done,
            finish=list(self.finish),
            starts=list(self.starts),
            device_free=list(self.device_free),
            device_busy=list(self.device_busy),
            device_ready=[list(q) for q in self.device_ready],
            device_running=list(self.device_running),
            link_free=dict(self.link_free),
            shipped=set(self.shipped),
            remaining=list(self.remaining),
            comm_time=self.comm_time,
            comm_bytes=self.comm_bytes,
            heap=list(self.heap),  # tuples are immutable; a shallow copy suffices
            seq=self.seq,
            consumers_waiting={k: list(v) for k, v in self.consumers_waiting.items()},
        )


def _initial_state(tables: ScheduleTables, devices: List[int]) -> _SimState:
    """Simulator state after marking source ops ready (pre-event-loop)."""
    n = tables.n
    state = _SimState(
        events_done=0,
        finish=[0.0] * n,
        starts=[0.0] * n,
        device_free=[0.0] * tables.num_devices,
        device_busy=[0.0] * tables.num_devices,
        device_ready=[[] for _ in range(tables.num_devices)],
        device_running=[False] * tables.num_devices,
        link_free={},
        shipped=set(),
        remaining=list(tables.in_degree),
        comm_time=0.0,
        comm_bytes=0.0,
        heap=[],
        seq=0,
        consumers_waiting={},
    )
    op_times = tables.op_times
    seq = 0
    for op in range(n):
        if state.remaining[op] == 0:
            dev = devices[op]
            heapq.heappush(state.device_ready[dev], op)
            if not state.device_running[dev]:
                ready_op = heapq.heappop(state.device_ready[dev])
                duration = op_times[ready_op][dev]
                start = state.device_free[dev]  # now == 0.0
                if start < 0.0:  # pragma: no cover - times are non-negative
                    start = 0.0
                end = start + duration
                state.starts[ready_op] = start
                state.finish[ready_op] = end
                state.device_free[dev] = end
                state.device_busy[dev] += duration
                state.device_running[dev] = True
                heapq.heappush(state.heap, (end, seq, 0, (ready_op, dev)))
                seq += 1
    state.seq = seq
    return state


def _drain(
    state: _SimState,
    tables: ScheduleTables,
    devices: List[int],
    transfers: Optional[List[TransferRecord]] = None,
    snapshot_every: int = 0,
    completion_index: Optional[List[int]] = None,
    snapshots: Optional[List[_SimState]] = None,
) -> _SimState:
    """Run the event loop to exhaustion, mutating ``state`` in place.

    Event heap entries are ``(time, seq, kind, payload)``: kind 0 is an op
    completion (payload ``(op, device)``), kind 1 a tensor arrival
    (payload ``(producer, dst_device)``). ``remaining[v]`` counts inputs
    not yet arrived on v's device; an edge u->v with u on another device
    completes only when the (u, dst) transfer arrives, which satisfies
    every consumer of u on dst.

    ``transfers``, when given, receives a :class:`TransferRecord` per
    cross-device shipment. With ``snapshot_every > 0`` the loop also
    records periodic state snapshots and per-op completion indices (the
    incremental baseline mode).
    """
    op_times = tables.op_times
    succ = tables.succ
    out_bytes = tables.out_bytes
    transfer = tables.transfer
    finish = state.finish
    starts = state.starts
    device_free = state.device_free
    device_busy = state.device_busy
    device_ready = state.device_ready
    device_running = state.device_running
    link_free = state.link_free
    shipped = state.shipped
    remaining = state.remaining
    events = state.heap
    seq = state.seq
    consumers_waiting = state.consumers_waiting
    comm_time = state.comm_time
    comm_bytes = state.comm_bytes
    events_done = state.events_done
    heappush, heappop = heapq.heappush, heapq.heappop

    while events:
        if (
            snapshot_every
            and events_done
            and events_done % snapshot_every == 0
            and snapshots is not None
        ):
            state.seq = seq
            state.comm_time = comm_time
            state.comm_bytes = comm_bytes
            state.events_done = events_done
            snapshots.append(state.copy())
        now, _, kind, payload = heappop(events)
        if kind == 0:  # op completed
            op, dev = payload
            if completion_index is not None:
                completion_index[op] = events_done
            device_running[dev] = False
            for s in succ[op]:
                dst = devices[s]
                if dst == dev:
                    remaining[s] -= 1
                    if remaining[s] == 0:
                        # mark ready, then start it if its device is idle
                        heappush(device_ready[dst], s)
                        if not device_running[dst]:
                            ready_op = heappop(device_ready[dst])
                            duration = op_times[ready_op][dst]
                            start = now if now > device_free[dst] else device_free[dst]
                            end = start + duration
                            starts[ready_op] = start
                            finish[ready_op] = end
                            device_free[dst] = end
                            device_busy[dst] += duration
                            device_running[dst] = True
                            heappush(events, (end, seq, 0, (ready_op, dst)))
                            seq += 1
                else:
                    key = (op, dst)
                    if key in shipped:
                        consumers_waiting[key].append(s)
                    else:
                        shipped.add(key)
                        consumers_waiting[key] = [s]
                        nbytes = out_bytes[op]
                        link = (dev, dst) if dev < dst else (dst, dev)
                        duration = transfer[dev][dst][op]
                        queued = link_free.get(link, 0.0)
                        start = now if now > queued else queued
                        link_free[link] = start + duration
                        comm_time += duration
                        comm_bytes += nbytes
                        if transfers is not None:
                            transfers.append(
                                TransferRecord(op, dev, dst, start, start + duration, nbytes)
                            )
                        heappush(events, (start + duration, seq, 1, key))
                        seq += 1
            # Start the next ready op on the freed device. A same-device
            # successor may have restarted the device inside the loop
            # above, so the running check is load-bearing.
            if not device_running[dev] and device_ready[dev]:
                ready_op = heappop(device_ready[dev])
                duration = op_times[ready_op][dev]
                start = now if now > device_free[dev] else device_free[dev]
                end = start + duration
                starts[ready_op] = start
                finish[ready_op] = end
                device_free[dev] = end
                device_busy[dev] += duration
                device_running[dev] = True
                heappush(events, (end, seq, 0, (ready_op, dev)))
                seq += 1
        else:  # tensor arrived on a device
            for s in consumers_waiting.pop(payload, ()):
                remaining[s] -= 1
                if remaining[s] == 0:
                    dst = devices[s]
                    heappush(device_ready[dst], s)
                    if not device_running[dst]:
                        ready_op = heappop(device_ready[dst])
                        duration = op_times[ready_op][dst]
                        start = now if now > device_free[dst] else device_free[dst]
                        end = start + duration
                        starts[ready_op] = start
                        finish[ready_op] = end
                        device_free[dst] = end
                        device_busy[dst] += duration
                        device_running[dst] = True
                        heappush(events, (end, seq, 0, (ready_op, dst)))
                        seq += 1
        events_done += 1

    state.seq = seq
    state.comm_time = comm_time
    state.comm_bytes = comm_bytes
    state.events_done = events_done
    return state


def _result_from_state(
    state: _SimState,
    tables: ScheduleTables,
    transfers: Optional[List[TransferRecord]] = None,
) -> ScheduleResult:
    finish = np.array(state.finish, dtype=np.float64)
    makespan = float(finish.max()) + tables.step_overhead if tables.n else 0.0
    return ScheduleResult(
        makespan=makespan,
        finish_times=finish,
        device_busy=np.array(state.device_busy, dtype=np.float64),
        comm_time=float(state.comm_time),
        comm_bytes=float(state.comm_bytes),
        start_times=np.array(state.starts, dtype=np.float64),
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
        state = _drain(_initial_state(tables, devices), tables, devices, transfers)
        if any(state.remaining):  # pragma: no cover - defensive
            raise RuntimeError("scheduler deadlock: graph has a cycle?")
        return _result_from_state(state, tables, transfers)
