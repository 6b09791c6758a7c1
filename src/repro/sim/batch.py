"""Batched placement evaluation — the RL loop's hottest path, parallelized.

Every policy iteration measures ``samples_per_policy`` (paper: 10)
sampled placements. Sequentially, each one pays a full event-driven
scheduler pass (`sim/scheduler.py`), which dominates a search's wall
time. This module supplies the pieces behind
:meth:`repro.sim.env.PlacementEnv.evaluate_batch`:

* :class:`PureEvaluator` — the measurement math of *one* placement
  (memory check → schedule → protocol), free of caching, statistics and
  telemetry. Because the measurement noise is a deterministic function
  of the placement, this function is pure: it can run in any process, in
  any order, and produce bit-identical results.
* :class:`BatchEvaluator` — fans unique placements out across a
  persistent ``concurrent.futures`` pool. Workers are initialized once
  with the precomputed graph invariants (op-time table, schedule
  tables, per-op memory, device capacities) so per-call traffic is one
  small device array in and one :class:`EvalOutcome` out.
* :class:`BatchEvalConfig` — lives on ``MarsConfig.eval_batch``; the
  default is ``os.cpu_count()``-aware with a deterministic serial
  fallback (single core, tiny graphs, small batches), so seeded runs
  stay reproducible everywhere.

Only the pure compute is parallelized: the environment dedupes the batch
against its result cache *before* any scheduling work and applies all
bookkeeping (cache inserts, stats, telemetry) in original batch order
afterwards — results, cache state and event streams are identical to a
sequential loop of ``evaluate`` calls, in every mode.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.graph import CompGraph
from repro.sim.cluster import ClusterSpec
from repro.sim.costmodel import CostModel
from repro.sim.measurement import MeasurementProtocol, MeasurementResult
from repro.sim.memory import MemoryModel
from repro.sim.placement import Placement
from repro.sim.scheduler import Scheduler, ScheduleTables
from repro.utils.logging import get_logger

logger = get_logger("repro.sim.batch")

#: Upper bound on the cpu-count-derived default pool size — batches are
#: ``samples_per_policy`` (≈10) placements, so more workers only add
#: fork/IPC overhead.
DEFAULT_MAX_POOL_WORKERS = 8


@dataclass
class BatchEvalConfig:
    """How :meth:`PlacementEnv.evaluate_batch` spreads its work.

    ``mode="auto"`` uses a process pool only when it can pay for itself
    (multiple cores, enough unique placements, a graph big enough that a
    scheduler pass dwarfs the IPC) and otherwise falls back to the exact
    sequential code path — results are identical either way, so the
    fallback preserves seeded-run reproducibility rather than changing it.
    """

    mode: str = "auto"  # "auto" | "serial" | "thread" | "process"
    max_workers: Optional[int] = None  # None -> os.cpu_count()-aware default
    min_parallel: int = 4  # fewer unique placements than this run serially
    min_ops_parallel: int = 128  # auto only: smaller graphs run serially
    cache_capacity: int = 8192  # PlacementEnv LRU result cache (<=0: unbounded)
    #: Pool rebuilds allowed after a BrokenProcessPool (a worker OOM-killed
    #: or SIGKILLed mid-batch) before degrading to serial for the rest of
    #: the run. Environment-level failures (fork refused) never rebuild.
    max_pool_rebuilds: int = 2

    def __post_init__(self) -> None:
        if self.mode not in ("auto", "serial", "thread", "process"):
            raise ValueError(
                f"mode must be auto|serial|thread|process, got {self.mode!r}"
            )

    def resolved_workers(self) -> int:
        """The pool size ``max_workers=None`` resolves to on this host."""
        if self.max_workers is not None:
            return max(1, int(self.max_workers))
        return max(1, min(DEFAULT_MAX_POOL_WORKERS, (os.cpu_count() or 1) - 1))


@dataclass
class EvalOutcome:
    """Everything one placement measurement produces.

    The :class:`MeasurementResult` is what the agent sees; the rest is
    the schedule/memory breakdown the environment's telemetry records
    (computed here so pool workers need not touch telemetry at all).
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
    Pool workers each receive one instance via the pool initializer —
    the invariants cross the process boundary once per worker, not once
    per placement.
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
        deterministic noise; the caller computes it so the value is
        consistent across processes (``hash()`` is salted per process).

        ``incremental`` is an optional
        :class:`repro.sim.incremental.IncrementalEvaluator`: when given
        (local/serial paths only — pool workers never see one), the
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


# ----------------------------------------------------------------------
# Process-pool plumbing: each worker builds its evaluator exactly once.
# ----------------------------------------------------------------------
_WORKER_EVALUATOR: Optional[PureEvaluator] = None


def _init_worker(evaluator: PureEvaluator) -> None:
    global _WORKER_EVALUATOR
    _WORKER_EVALUATOR = evaluator


def _eval_job(job: Tuple[np.ndarray, int]) -> EvalOutcome:
    devices, placement_key = job
    return _WORKER_EVALUATOR.compute(devices, placement_key)


def _timed_compute(
    evaluator: PureEvaluator, job: Tuple[np.ndarray, int]
) -> Tuple[EvalOutcome, float, float]:
    """Compute one job and measure it where it ran: ``(outcome,
    start_unix, duration_s)``. Feeds the parent's ``env.eval_worker``
    spans (workers cannot emit into the parent's event log themselves)."""
    start_unix = time.time()
    start = time.perf_counter()
    outcome = evaluator.compute(*job)
    return outcome, start_unix, time.perf_counter() - start


def _eval_job_timed(
    job: Tuple[np.ndarray, int]
) -> Tuple[EvalOutcome, float, float]:
    return _timed_compute(_WORKER_EVALUATOR, job)


class BatchEvaluator:
    """Runs batches of unique placement jobs, serially or on a pool.

    The executor is created lazily and reused across batches (a search
    evaluates thousands of batches; per-batch pool startup would dwarf
    the scheduling work). Failures degrade, never crash, and always
    finish the current batch on the serial path (identical results):

    * ``BrokenProcessPool`` — a pool worker died mid-batch (OOM killer,
      stray SIGKILL). The pool is torn down and *rebuilt* for the next
      batch, up to ``max_pool_rebuilds`` times (counted in
      ``pool_failures``); past the budget the evaluator turns serial for
      the rest of the run.
    * ``OSError``/other ``RuntimeError`` — the environment refuses pools
      altogether (fork blocked in a sandbox). No rebuild attempts:
      serial for the rest of the run immediately.
    """

    def __init__(self, evaluator: PureEvaluator, config: Optional[BatchEvalConfig] = None):
        self.evaluator = evaluator
        self.config = config or BatchEvalConfig()
        self._executor = None
        self._executor_kind: Optional[str] = None
        self._pool_broken = False
        #: Cumulative BrokenProcessPool events (the environment diffs
        #: this into its ``env.eval_pool_failures`` counter).
        self.pool_failures = 0

    @property
    def workers(self) -> int:
        return self.config.resolved_workers()

    def _pick_mode(self, n_jobs: int) -> str:
        cfg = self.config
        if self._pool_broken or cfg.mode == "serial" or self.workers <= 1:
            return "serial"
        if cfg.mode in ("thread", "process"):
            return cfg.mode if n_jobs > 1 else "serial"
        # auto: pool only when the fan-out can amortize worker IPC.
        if (
            n_jobs >= cfg.min_parallel
            and self.evaluator.graph.num_nodes >= cfg.min_ops_parallel
        ):
            return "process"
        return "serial"

    def _ensure_executor(self, kind: str):
        if self._executor is not None and self._executor_kind != kind:
            self.shutdown()
        if self._executor is None:
            if kind == "process":
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers,
                    initializer=_init_worker,
                    initargs=(self.evaluator,),
                )
            else:
                self._executor = ThreadPoolExecutor(max_workers=self.workers)
            self._executor_kind = kind
        return self._executor

    def _compute_serial(self, jobs, timed: bool):
        if timed:
            mapped = [_timed_compute(self.evaluator, job) for job in jobs]
            return [m[0] for m in mapped], 0, [(m[1], m[2]) for m in mapped]
        return [self.evaluator.compute(d, k) for d, k in jobs], 0

    def compute_many(
        self, jobs: Sequence[Tuple[np.ndarray, int]], timed: bool = False
    ):
        """Outcomes for ``jobs``, in input order.

        Returns ``(outcomes, pool_workers)`` where ``pool_workers`` is 0
        when the batch ran on the serial path. With ``timed=True`` the
        return is ``(outcomes, pool_workers, timings)`` where
        ``timings[i]`` is ``(start_unix, duration_s)`` measured where job
        ``i`` actually ran — the environment turns these into
        ``env.eval_worker`` spans. The outcomes themselves are identical
        in both forms (timing never touches the measurement).
        """
        if not jobs:
            return ([], 0, []) if timed else ([], 0)
        kind = self._pick_mode(len(jobs))
        if kind == "serial":
            return self._compute_serial(jobs, timed)
        try:
            executor = self._ensure_executor(kind)
            if kind == "process":
                chunksize = max(1, math.ceil(len(jobs) / (self.workers * 2)))
                fn = _eval_job_timed if timed else _eval_job
                mapped = list(executor.map(fn, jobs, chunksize=chunksize))
            elif timed:
                mapped = list(
                    executor.map(lambda job: _timed_compute(self.evaluator, job), jobs)
                )
            else:
                mapped = list(
                    executor.map(lambda job: self.evaluator.compute(*job), jobs)
                )
            if timed:
                outcomes = [m[0] for m in mapped]
                return outcomes, self.workers, [(m[1], m[2]) for m in mapped]
            return mapped, self.workers
        except BrokenProcessPool as exc:
            # A pool worker was killed mid-batch. Unlike the environment
            # failures below, this is usually transient (OOM killer,
            # operator SIGKILL), so the pool is rebuilt on the next batch
            # — up to the configured budget.
            self.pool_failures += 1
            self.shutdown()
            if self.pool_failures > self.config.max_pool_rebuilds:
                self._pool_broken = True
                logger.warning(
                    "evaluation pool broke mid-batch (%s) for the %d-th "
                    "time — over the rebuild budget (%d), serial for the "
                    "rest of this run",
                    exc,
                    self.pool_failures,
                    self.config.max_pool_rebuilds,
                )
            else:
                logger.warning(
                    "evaluation pool broke mid-batch (%s); finishing this "
                    "batch serially and rebuilding the pool (failure %d/%d)",
                    exc,
                    self.pool_failures,
                    self.config.max_pool_rebuilds + 1,
                )
            return self._compute_serial(jobs, timed)
        except (OSError, RuntimeError) as exc:
            logger.warning(
                "parallel placement evaluation failed (%s: %s); "
                "falling back to serial for the rest of this run",
                type(exc).__name__,
                exc,
            )
            self._pool_broken = True
            self.shutdown()
            return self._compute_serial(jobs, timed)

    def shutdown(self) -> None:
        """Tear down the pool; the next batch recreates it if needed."""
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None
            self._executor_kind = None

    def __del__(self):  # pragma: no cover - interpreter-shutdown path
        try:
            self.shutdown()
        except Exception:
            pass
