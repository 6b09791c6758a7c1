"""The measurement of one placement, and the batch evaluation config.

Every policy iteration measures ``samples_per_policy`` (paper: 10)
sampled placements. This module supplies the pieces behind
:meth:`repro.sim.env.PlacementEnv.evaluate` and
:meth:`repro.sim.env.PlacementEnv.evaluate_batch`:

* :class:`PureEvaluator` — the measurement math of *one* placement
  (memory check → schedule → protocol), free of caching, statistics and
  telemetry. The measurement noise is a deterministic function of the
  placement, so the same placement always measures the same.
* :class:`BatchEvalConfig` — lives on ``MarsConfig.eval_batch`` and
  bounds the environment's result cache.

``evaluate_batch`` is an ordered loop over the same per-placement body
as ``evaluate``. Simulated evaluation is a few percent of a search
iteration's wall time, so the rollout is measured in the calling
process; the parallelism budget goes to ``repro.distrib``'s rollout
workers instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.graph import CompGraph
from repro.sim.cluster import ClusterSpec
from repro.sim.costmodel import CostModel
from repro.sim.measurement import MeasurementProtocol, MeasurementResult
from repro.sim.memory import MemoryModel
from repro.sim.placement import Placement
from repro.sim.scheduler import Scheduler, ScheduleTables


@dataclass
class BatchEvalConfig:
    """Evaluation settings of a :class:`PlacementEnv`."""

    cache_capacity: int = 8192  # PlacementEnv LRU result cache (<=0: unbounded)


@dataclass
class EvalOutcome:
    """Everything one placement measurement produces.

    The :class:`MeasurementResult` is what the agent sees; the rest is
    the schedule/memory breakdown the environment's telemetry records.
    """

    result: MeasurementResult
    makespan: float  # inf for OOM placements
    comm_time: float
    comm_bytes: float
    utilization: float  # mean device-busy fraction over the makespan
    worst_usage: float = 0.0  # bytes on the most-overcommitted device (OOM)
    worst_capacity: float = 0.0
    #: How the schedule was produced: None = incremental not attempted,
    #: True = incremental resume, False = attempted but fell back to full
    #: simulation. Purely observational — the numbers are identical either
    #: way (sim/incremental.py's bit-identical contract).
    incremental: Optional[bool] = None


class PureEvaluator:
    """Placement → :class:`EvalOutcome`, with no mutable run state.

    Holds the precomputed graph invariants so one evaluation is O(V+E).
    """

    def __init__(
        self,
        graph: CompGraph,
        cluster: ClusterSpec,
        cost_model: CostModel,
        protocol: MeasurementProtocol,
        op_times: np.ndarray,
        tables: ScheduleTables,
        mem_per_op: np.ndarray,
        capacity: np.ndarray,
    ):
        self.graph = graph
        self.cluster = cluster
        self.protocol = protocol
        self.scheduler = Scheduler(cost_model)
        self.op_times = op_times
        self.tables = tables
        self.mem_per_op = mem_per_op
        self.capacity = capacity

    @classmethod
    def build(
        cls,
        graph: CompGraph,
        cluster: ClusterSpec,
        cost_model: CostModel,
        memory_model: MemoryModel,
        protocol: MeasurementProtocol,
    ) -> "PureEvaluator":
        op_times = cost_model.op_time_matrix(graph, cluster)
        tables = ScheduleTables(graph, cluster, cost_model, op_times)
        mem_per_op = memory_model.op_bytes_vector(graph)
        capacity = np.array([d.memory for d in cluster.devices])
        return cls(graph, cluster, cost_model, protocol, op_times, tables, mem_per_op, capacity)

    def memory_usage(self, placement: Placement) -> Tuple[np.ndarray, np.ndarray]:
        usage = np.zeros(self.cluster.num_devices)
        np.add.at(usage, placement.devices, self.mem_per_op)
        return usage, usage > self.capacity

    def compute(
        self, devices: np.ndarray, placement_key: int, incremental=None
    ) -> EvalOutcome:
        """Measure one placement. ``placement_key`` seeds the protocol's
        deterministic noise.

        ``incremental`` is an optional
        :class:`repro.sim.incremental.IncrementalEvaluator`: when given, the
        schedule is resumed from the anchored baseline when the delta is
        small, falling back to the full simulator otherwise. Results are
        bit-identical either way; ``EvalOutcome.incremental`` records
        which path ran.
        """
        placement = Placement(devices, self.graph, self.cluster)
        usage, oom = self.memory_usage(placement)
        valid = not bool(oom.any())
        used_incremental: Optional[bool] = None
        if valid:
            schedule = None
            if incremental is not None:
                schedule = incremental.reschedule(placement.devices)
                used_incremental = schedule is not None
            if schedule is None:
                schedule = self.scheduler.run_step(placement, tables=self.tables)
            makespan = schedule.makespan
            utilization = (
                float(np.mean(schedule.device_busy) / schedule.makespan)
                if schedule.makespan > 0
                else 0.0
            )
            comm_time = float(schedule.comm_time)
            comm_bytes = float(schedule.comm_bytes)
            worst_usage = worst_capacity = 0.0
        else:
            makespan = float("inf")
            utilization = comm_time = comm_bytes = 0.0
            worst = int(np.argmax(usage - self.capacity))
            worst_usage = float(usage[worst])
            worst_capacity = float(self.capacity[worst])
        result = self.protocol.measure(makespan, valid, placement_key)
        return EvalOutcome(
            result=result,
            makespan=float(makespan),
            comm_time=comm_time,
            comm_bytes=comm_bytes,
            utilization=utilization,
            worst_usage=worst_usage,
            worst_capacity=worst_capacity,
            incremental=used_incremental,
        )
