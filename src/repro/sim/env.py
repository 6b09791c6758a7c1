"""The placement environment the RL agent interacts with.

Ties together graph, cluster, cost model, memory model, scheduler and
measurement protocol behind the calls an agent needs:

* :meth:`PlacementEnv.evaluate` — measure a proposed placement (with
  caching, OOM handling and wall-clock accounting),
* :meth:`PlacementEnv.evaluate_batch` — measure a whole rollout: an
  ordered loop over the same per-placement body as ``evaluate``, under
  one span and with batch-level metrics, so it equals a sequential loop
  of ``evaluate`` calls by construction, and
* :meth:`PlacementEnv.final_run` — the 1000-step evaluation of the best
  placement reported in the paper's tables.

The per-placement result cache is a bounded LRU (re-measuring an evicted
placement just costs one more simulated measurement, exactly as on a
real machine), so long searches hold a fixed amount of memory.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.graph import CompGraph
from repro.sim.attribution import PlacementAttribution, attribute_schedule
from repro.sim.batch import BatchEvalConfig, EvalOutcome, PureEvaluator
from repro.sim.cluster import ClusterSpec
from repro.sim.costmodel import CostModel
from repro.sim.measurement import MeasurementProtocol, MeasurementResult
from repro.sim.memory import MemoryModel
from repro.sim.placement import Placement, PlacementConstraints
from repro.telemetry import Telemetry, get_telemetry
from repro.telemetry.tracing import span


@dataclass
class EnvStats:
    """Cumulative bookkeeping of environment usage."""

    evaluations: int = 0
    cache_hits: int = 0
    cache_evictions: int = 0
    invalid: int = 0
    truncated: int = 0
    wall_clock: float = 0.0  # simulated seconds spent measuring placements
    # Always 0: kept because the benchmarks/e2e harness reads them.
    incremental_hits: int = 0
    incremental_fallbacks: int = 0


class PlacementEnv:
    """Measurement environment for one workload on one cluster."""

    def __init__(
        self,
        graph: CompGraph,
        cluster: Optional[ClusterSpec] = None,
        cost_model: Optional[CostModel] = None,
        memory_model: Optional[MemoryModel] = None,
        protocol: Optional[MeasurementProtocol] = None,
        telemetry: Optional[Telemetry] = None,
        batch: Optional[BatchEvalConfig] = None,
        incremental: object = None,  # ignored; the benchmarks/e2e harness passes it
    ):
        self.graph = graph
        self._telemetry = telemetry  # None -> ambient session per evaluate()
        self.cluster = cluster or ClusterSpec.default()
        self.cost_model = cost_model or CostModel()
        self.memory_model = memory_model or MemoryModel()
        self.protocol = protocol or MeasurementProtocol()
        self.stats = EnvStats()
        # Precompute invariants; evaluating a placement is then O(V + E).
        self._evaluator = PureEvaluator.build(
            self.graph, self.cluster, self.cost_model, self.memory_model, self.protocol
        )
        self.scheduler = self._evaluator.scheduler
        self._op_times = self._evaluator.op_times
        self._tables = self._evaluator.tables
        self._constraints = PlacementConstraints(self.graph, self.cluster)
        # Bounded LRU result cache: one entry per unique placement, capped
        # so long searches hold constant memory (<=0 means unbounded).
        cap = (batch or BatchEvalConfig()).cache_capacity
        self._cache_capacity = int(cap) if cap and cap > 0 else 0
        self._cache: "OrderedDict[bytes, MeasurementResult]" = OrderedDict()

    # ------------------------------------------------------------------
    @property
    def num_devices(self) -> int:
        return self.cluster.num_devices

    @property
    def num_ops(self) -> int:
        return self.graph.num_nodes

    @property
    def cache_size(self) -> int:
        return len(self._cache)

    def resolve(self, actions: Sequence[int]) -> Placement:
        return self._constraints.resolve(actions)

    def makespan(self, placement: Placement) -> float:
        """Noise-free step time of a placement (no wall-clock charge)."""
        return self.scheduler.run_step(placement, tables=self._tables).makespan

    def check_memory(self, placement: Placement):
        return self._evaluator.memory_usage(placement)

    # ------------------------------------------------------------------
    # Attribution (docs/observability.md §"Placement attribution")
    # ------------------------------------------------------------------
    def attribute(self, actions: Sequence[int]) -> PlacementAttribution:
        """Full diagnostic breakdown of a placement's step time.

        Pure analysis — no measurement noise, no wall-clock charge, no
        cache interaction. Runs one traced scheduler pass.
        """
        placement = self.resolve(actions)
        schedule = self.scheduler.run_step(placement, trace=True, tables=self._tables)
        return attribute_schedule(placement, schedule)

    def record_attribution(
        self, actions: Sequence[int], iteration: int = -1
    ) -> PlacementAttribution:
        """Attribute a placement and record the result into telemetry.

        Sets the ``env.critical_path_time`` / ``env.critical_path_ops`` /
        ``env.comm_bound_fraction`` gauges and emits one schema-versioned
        ``attribution`` event (the report CLI's ``--attribution`` section
        renders the latest one). The trainer calls this for each
        significantly-improved best placement.
        """
        tel = self._telemetry or get_telemetry()
        attr = self.attribute(actions)
        tel.gauge("env.critical_path_time").set(attr.critical_path_time)
        tel.gauge("env.critical_path_ops").set(
            sum(1 for s in attr.path if s.kind == "op")
        )
        tel.gauge("env.comm_bound_fraction").set(attr.comm_bound_fraction)
        tel.emit("attribution", **attr.event_payload(self.graph, iteration=iteration))
        return attr

    def close_pool(self) -> None:
        """Release hook for an environment that is being dropped.

        Evaluation holds no pool or other external resource, so this does
        nothing. It stays as the one place owners call when they let go
        of an env: the serving layer calls it on env-cache eviction and
        shutdown, and the end-to-end benchmark hooks it there to collect
        each env's stats.
        """

    # ------------------------------------------------------------------
    # Run-state snapshots (core/runstate.py)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Cumulative stats + the LRU result cache, for crash-safe resume.

        The cache is part of the *simulated clock's* semantics: a cache
        hit charges only ``protocol.reinit_cost`` while a miss charges a
        full measurement, so resuming with an empty cache would change
        ``sim_clock`` — and therefore the resumed ``SearchHistory`` — in
        a way the uninterrupted run never saw. Entries are stored in LRU
        order (least-recent first) so eviction behaviour replays exactly.
        """
        if self._cache:
            keys = np.stack(
                [np.frombuffer(k, dtype=np.int64) for k in self._cache]
            )
            results = list(self._cache.values())
        else:
            keys = np.empty((0, self.num_ops), dtype=np.int64)
            results = []
        return {
            "stats": {
                "evaluations": int(self.stats.evaluations),
                "cache_hits": int(self.stats.cache_hits),
                "cache_evictions": int(self.stats.cache_evictions),
                "invalid": int(self.stats.invalid),
                "truncated": int(self.stats.truncated),
                "wall_clock": float(self.stats.wall_clock),
            },
            "cache": {
                "keys": keys,
                "per_step_time": np.array([r.per_step_time for r in results], dtype=np.float64),
                "valid": np.array([r.valid for r in results], dtype=bool),
                "truncated": np.array([r.truncated for r in results], dtype=bool),
                "steps_run": np.array([r.steps_run for r in results], dtype=np.int64),
                "wall_clock": np.array([r.wall_clock for r in results], dtype=np.float64),
            },
        }

    def load_state_dict(self, state: dict) -> None:
        stats = state["stats"]
        self.stats = EnvStats(
            evaluations=int(stats["evaluations"]),
            cache_hits=int(stats["cache_hits"]),
            cache_evictions=int(stats["cache_evictions"]),
            invalid=int(stats["invalid"]),
            truncated=int(stats["truncated"]),
            wall_clock=float(stats["wall_clock"]),
        )
        cache = state["cache"]
        keys = np.asarray(cache["keys"], dtype=np.int64)
        if keys.size and keys.shape[1] != self.num_ops:
            raise ValueError(
                f"cached placements have {keys.shape[1]} ops, graph has {self.num_ops}"
            )
        self._cache = OrderedDict()
        for i in range(keys.shape[0]):
            self._cache[np.ascontiguousarray(keys[i]).tobytes()] = MeasurementResult(
                per_step_time=float(cache["per_step_time"][i]),
                valid=bool(cache["valid"][i]),
                truncated=bool(cache["truncated"][i]),
                steps_run=int(cache["steps_run"][i]),
                wall_clock=float(cache["wall_clock"][i]),
            )

    # ------------------------------------------------------------------
    # Cache (bounded LRU)
    # ------------------------------------------------------------------
    def _cache_get(self, key: bytes) -> Optional[MeasurementResult]:
        result = self._cache.get(key)
        if result is not None:
            self._cache.move_to_end(key)
        return result

    def _cache_put(self, key: bytes, result: MeasurementResult, tel: Telemetry) -> None:
        self._cache[key] = result
        self._cache.move_to_end(key)
        if self._cache_capacity and len(self._cache) > self._cache_capacity:
            self._cache.popitem(last=False)
            self.stats.cache_evictions += 1
            tel.counter("env.cache_evictions").inc()
        tel.gauge("env.cache_size").set(len(self._cache))

    # ------------------------------------------------------------------
    # Bookkeeping shared by evaluate() and evaluate_batch()
    # ------------------------------------------------------------------
    def _record_cache_hit(self, cached: MeasurementResult, tel: Telemetry) -> None:
        self.stats.cache_hits += 1
        self.stats.evaluations += 1
        # Re-measuring a known placement is quick on a real setup too
        # (no exploration value) — charge only the re-init.
        self.stats.wall_clock += self.protocol.reinit_cost
        tel.counter("env.evaluations").inc()
        tel.counter("env.cache_hits").inc()
        if tel.sample_events:
            tel.emit(
                "eval",
                makespan=float("nan"),
                per_step_time=float(cached.per_step_time),
                valid=bool(cached.valid),
                truncated=bool(cached.truncated),
                cached=True,
                wall_clock=float(self.protocol.reinit_cost),
                sim_clock=float(self.stats.wall_clock),
            )

    def _record_outcome(self, key: bytes, outcome: EvalOutcome, tel: Telemetry) -> None:
        result = outcome.result
        self._cache_put(key, result, tel)
        self.stats.evaluations += 1
        self.stats.wall_clock += result.wall_clock
        if not result.valid:
            self.stats.invalid += 1
        if result.truncated:
            self.stats.truncated += 1

        # Telemetry: makespan breakdown + OOM/cutoff accounting. The
        # schedule breakdown is a by-product of the measurement, so the
        # extra cost here is a few scalar observations per (uncached)
        # evaluation.
        tel.counter("env.evaluations").inc()
        tel.histogram("env.measure_wall_s").observe(result.wall_clock)
        if result.valid:
            tel.histogram("env.makespan").observe(outcome.makespan)
            tel.histogram("env.comm_time").observe(outcome.comm_time)
            tel.histogram("env.comm_bytes").observe(outcome.comm_bytes)
            tel.histogram("env.device_utilization").observe(outcome.utilization)
        else:
            tel.counter("env.oom").inc()
            tel.emit(
                "oom",
                sim_clock=float(self.stats.wall_clock),
                usage_gb=float(outcome.worst_usage / 2**30),
                capacity_gb=float(outcome.worst_capacity / 2**30),
            )
        if result.truncated:
            tel.counter("env.cutoff").inc()
            tel.emit(
                "cutoff",
                sim_clock=float(self.stats.wall_clock),
                per_step_time=float(result.per_step_time),
                steps_run=int(result.steps_run),
            )
        if tel.sample_events:
            tel.emit(
                "eval",
                makespan=float(outcome.makespan),
                per_step_time=float(result.per_step_time),
                valid=bool(result.valid),
                truncated=bool(result.truncated),
                cached=False,
                wall_clock=float(result.wall_clock),
                sim_clock=float(self.stats.wall_clock),
                comm_time=float(outcome.comm_time),
                comm_bytes=float(outcome.comm_bytes),
                device_utilization=float(outcome.utilization),
            )

    # ------------------------------------------------------------------
    def evaluate(self, actions: Sequence[int]) -> MeasurementResult:
        """Measure a placement proposed by the agent (cached)."""
        tel = self._telemetry or get_telemetry()
        # Traced only inside an active trace (a service.handle or
        # trainer.iteration span on this thread); otherwise span() returns
        # the shared no-op and this costs two attribute checks.
        with span("env.evaluate", telemetry=tel):
            placement = self.resolve(actions)
            return self._measure(placement, placement.devices.tobytes(), tel)

    def evaluate_batch(self, actions_batch: Sequence[Sequence[int]]) -> List[MeasurementResult]:
        """Measure a batch of placements: ``[self.evaluate(a) for a in
        actions_batch]`` under one ``env.evaluate_batch`` span, plus the
        batch metrics. Entries run in order through the same body as
        ``evaluate``, so in-batch duplicates hit the cache."""
        tel = self._telemetry or get_telemetry()
        with span("env.evaluate_batch", telemetry=tel, n=len(actions_batch)):
            placements = [self.resolve(a) for a in actions_batch]
            keys = [p.devices.tobytes() for p in placements]
            # Placements this batch has to measure: neither cached when it
            # starts nor repeated within it.
            unique = len(set(keys).difference(self._cache))
            results = [
                self._measure(placement, key, tel)
                for placement, key in zip(placements, keys)
            ]
            n = len(placements)
            if n:
                tel.counter("env.batches").inc()
                tel.histogram("env.batch_size").observe(n)
                tel.histogram("env.batch_dedupe_rate").observe(1.0 - unique / n)
            return results

    def _measure(
        self, placement: Placement, key: bytes, tel: Telemetry
    ) -> MeasurementResult:
        """The per-placement body of ``evaluate`` and ``evaluate_batch``:
        cache lookup, else compute and record."""
        cached = self._cache_get(key)
        if cached is not None:
            self._record_cache_hit(cached, tel)
            return cached
        outcome = self._evaluator.compute(placement.devices, hash(placement))
        self._record_outcome(key, outcome, tel)
        return outcome.result

    def final_run(self, actions: Sequence[int], steps: int = 1000) -> float:
        """Per-step runtime of the final placement over a long run."""
        placement = self.resolve(actions)
        _, oom = self.check_memory(placement)
        if oom.any():
            return float("nan")
        makespan = self.makespan(placement)
        return self.protocol.final_evaluation(makespan, hash(placement), steps)
