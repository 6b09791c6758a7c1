"""The placement environment the RL agent interacts with.

Ties together graph, cluster, cost model, memory model, scheduler and
measurement protocol behind the calls an agent needs:

* :meth:`PlacementEnv.evaluate` — measure a proposed placement (with
  caching, OOM handling and wall-clock accounting),
* :meth:`PlacementEnv.evaluate_batch` — measure a whole rollout at once:
  the batch is deduped against the result cache first, and the remaining
  unique placements fan out across a worker pool (``sim/batch.py``) with
  a deterministic serial fallback — results are bit-identical to a
  sequential loop of ``evaluate`` calls in every mode, and
* :meth:`PlacementEnv.final_run` — the 1000-step evaluation of the best
  placement reported in the paper's tables.

The per-placement result cache is a bounded LRU (re-measuring an evicted
placement just costs one more simulated measurement, exactly as on a
real machine), so long searches hold a fixed amount of memory.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.graph import CompGraph
from repro.sim.attribution import PlacementAttribution, attribute_schedule
from repro.sim.batch import BatchEvalConfig, BatchEvaluator, EvalOutcome, PureEvaluator
from repro.sim.cluster import ClusterSpec
from repro.sim.costmodel import CostModel
from repro.sim.incremental import IncrementalEvalConfig, IncrementalEvaluator
from repro.sim.measurement import MeasurementProtocol, MeasurementResult
from repro.sim.memory import MemoryModel
from repro.sim.placement import Placement, resolve_placement
from repro.telemetry import Telemetry, get_telemetry
from repro.telemetry.tracing import record_span, span


@dataclass
class EnvStats:
    """Cumulative bookkeeping of environment usage."""

    evaluations: int = 0
    cache_hits: int = 0
    cache_evictions: int = 0
    invalid: int = 0
    truncated: int = 0
    wall_clock: float = 0.0  # simulated seconds spent measuring placements
    #: Evaluations served by the incremental fast path (sim/incremental.py)
    #: vs. attempts that fell back to full simulation. Results are
    #: bit-identical either way — these only measure how often the fast
    #: path pays off.
    incremental_hits: int = 0
    incremental_fallbacks: int = 0
    #: Batches whose evaluation pool broke mid-compute (a worker died)
    #: and were finished on the serial path — results are identical, this
    #: only measures pool robustness events (sim/batch.py).
    eval_pool_failures: int = 0


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
        cache_capacity: Optional[int] = None,
        incremental: Optional[IncrementalEvalConfig] = None,
    ):
        self.graph = graph
        self._telemetry = telemetry  # None -> ambient session per evaluate()
        self.cluster = cluster or ClusterSpec.default()
        self.cost_model = cost_model or CostModel()
        self.memory_model = memory_model or MemoryModel()
        self.protocol = protocol or MeasurementProtocol()
        self.stats = EnvStats()
        self.batch_config = batch or BatchEvalConfig()
        # Precompute invariants; evaluating a placement is then O(V + E).
        # The pure evaluator owns them so pool workers share the same code
        # path (and the same precomputed arrays) as the serial one.
        self._evaluator = PureEvaluator.build(
            self.graph, self.cluster, self.cost_model, self.memory_model, self.protocol
        )
        self.scheduler = self._evaluator.scheduler
        self._op_times = self._evaluator.op_times
        self._tables = self._evaluator.tables
        self._mem_per_op = self._evaluator.mem_per_op
        self._capacity = self._evaluator.capacity
        self._batcher = BatchEvaluator(self._evaluator, self.batch_config)
        # Incremental re-evaluation state: anchored to the best valid
        # placement seen (or an explicit anchor from a refinement loop).
        # Strictly local — pool workers always run the full simulator.
        self.incremental_config = (
            incremental if incremental is not None else IncrementalEvalConfig()
        )
        self._incremental = IncrementalEvaluator(
            self.graph,
            self.cluster,
            self.cost_model,
            self._op_times,
            self.incremental_config,
            tables=self._tables,
        )
        # Bounded LRU result cache: one entry per unique placement, capped
        # so long searches hold constant memory (<=0 means unbounded).
        cap = (
            cache_capacity
            if cache_capacity is not None
            else self.batch_config.cache_capacity
        )
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
        return resolve_placement(actions, self.graph, self.cluster)

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
        """Shut down the evaluation worker pool (it restarts lazily)."""
        self._batcher.shutdown()

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
                "incremental_hits": int(self.stats.incremental_hits),
                "incremental_fallbacks": int(self.stats.incremental_fallbacks),
                "eval_pool_failures": int(self.stats.eval_pool_failures),
            },
            "incremental": self._incremental.state_dict(),
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
            # Absent in snapshots written before the incremental fast path
            # existed — they resume with zeroed counters and no anchor.
            incremental_hits=int(stats.get("incremental_hits", 0)),
            incremental_fallbacks=int(stats.get("incremental_fallbacks", 0)),
            eval_pool_failures=int(stats.get("eval_pool_failures", 0)),
        )
        if "incremental" in state:
            self._incremental.load_state_dict(state["incremental"])
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
        if outcome.incremental is not None:
            if outcome.incremental:
                self.stats.incremental_hits += 1
                tel.counter("env.incremental_hits").inc()
            else:
                self.stats.incremental_fallbacks += 1
                tel.counter("env.incremental_fallbacks").inc()
        # Keep the incremental baseline anchored to the best valid
        # placement seen so far (cheap: the build itself is lazy).
        if result.valid and np.isfinite(outcome.makespan):
            self._incremental.maybe_anchor(
                np.frombuffer(key, dtype=np.int64), outcome.makespan
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
    def anchor_incremental(self, actions: Sequence[int]) -> None:
        """Re-anchor the incremental baseline to ``actions``.

        Refinement loops (annealing's incumbent, serving's greedy decode)
        call this so the placements they evaluate next — single-op
        neighbours of the anchor — take the incremental fast path. The
        baseline itself is built lazily on the next evaluation. A no-op
        when the fast path is disabled or the graph is below ``min_ops``.
        """
        placement = self.resolve(actions)
        self._incremental.anchor(placement.devices)

    def evaluate(self, actions: Sequence[int]) -> MeasurementResult:
        """Measure a placement proposed by the agent (cached)."""
        tel = self._telemetry or get_telemetry()
        # Traced only inside an active trace (a service.handle or
        # trainer.iteration span on this thread); otherwise span() returns
        # the shared no-op and this costs two attribute checks.
        with span("env.evaluate", telemetry=tel):
            placement = self.resolve(actions)
            key = placement.devices.tobytes()
            cached = self._cache_get(key)
            if cached is not None:
                self._record_cache_hit(cached, tel)
                return cached
            inc = self._incremental if self._incremental.ready else None
            outcome = self._evaluator.compute(
                placement.devices, hash(placement), incremental=inc
            )
            self._record_outcome(key, outcome, tel)
            return outcome.result

    def _apply_compute(
        self, placement: Placement, pool_outcome: Optional[EvalOutcome]
    ) -> EvalOutcome:
        """Outcome for one uncached batch entry, exactly as a sequential
        ``evaluate`` would have produced it at this point in the apply
        replay: same incremental hit/fallback decision against the
        *current* anchor (which earlier entries may have moved). A pool
        outcome, when available, supplies the numbers — they are
        bit-identical to the local paths — and only the ``incremental``
        classification is filled in."""
        inc = self._incremental if self._incremental.ready else None
        if pool_outcome is None:
            return self._evaluator.compute(
                placement.devices, hash(placement), incremental=inc
            )
        if inc is None or not pool_outcome.result.valid:
            return pool_outcome
        return replace(pool_outcome, incremental=inc.would_resume(placement.devices))

    def evaluate_batch(self, actions_batch: Sequence[Sequence[int]]) -> List[MeasurementResult]:
        """Measure a batch of placements; equivalent to — but faster than —
        ``[self.evaluate(a) for a in actions_batch]``.

        Three phases:

        1. **Dedupe.** Resolve every placement and drop batch entries whose
           key is already cached or duplicates an earlier entry, *before*
           any scheduling work. Entries predicted to take the incremental
           fast path stay local too — resuming them here is cheaper than
           shipping them to a worker that would resimulate from scratch.
        2. **Compute.** Fan the remaining unique placements out across the
           worker pool (or the serial fallback) — pure compute, no shared
           state.
        3. **Apply.** Replay the batch in its original order against the
           cache/stats/telemetry, mirroring what a sequential loop of
           ``evaluate`` calls would have done step by step — including the
           per-entry incremental hit/fallback decision, which is always
           made here against the anchor state earlier entries left behind
           (the phase-1 prediction is only a routing hint).
        """
        tel = self._telemetry or get_telemetry()
        batch_span = span("env.evaluate_batch", telemetry=tel, n=len(actions_batch))
        with batch_span:
            placements = [self.resolve(a) for a in actions_batch]
            keys = [p.devices.tobytes() for p in placements]

            inc = self._incremental
            jobs: List[Tuple[np.ndarray, int]] = []
            job_index = {}
            seen = set()
            for placement, key in zip(placements, keys):
                if key in self._cache or key in seen:
                    continue
                seen.add(key)
                if inc.ready and inc.would_resume(placement.devices):
                    continue  # predicted hit: computed locally in the apply loop
                job_index[key] = len(jobs)
                jobs.append((placement.devices, hash(placement)))

            pool_failures_before = self._batcher.pool_failures
            # When this batch is traced, have the pool measure each job
            # where it runs and record the workers' sections here — pool
            # workers cannot emit into this process's event log.
            if batch_span.context is not None:
                outcomes, pool_workers, timings = self._batcher.compute_many(
                    jobs, timed=True
                )
                for start_unix, duration_s in timings:
                    record_span(
                        "env.eval_worker",
                        duration_s,
                        telemetry=tel,
                        parent=batch_span.context,
                        start_unix=start_unix,
                        pool=bool(pool_workers),
                    )
            else:
                outcomes, pool_workers = self._batcher.compute_many(jobs)
            failed = self._batcher.pool_failures - pool_failures_before
            if failed:
                # Worker death mid-batch (sim/batch.py): the batch was
                # finished serially with identical results; count it.
                self.stats.eval_pool_failures += failed
                tel.counter("env.eval_pool_failures").inc(failed)

            results: List[MeasurementResult] = []
            for placement, key in zip(placements, keys):
                cached = self._cache_get(key)
                if cached is not None:
                    self._record_cache_hit(cached, tel)
                    results.append(cached)
                    continue
                # Uncached: either predicted-incremental (computed here), pool
                # computed (classified here), or cached-then-evicted during
                # this very apply loop (recomputed, exactly as the sequential
                # path would have after the same eviction).
                index = job_index.get(key)
                pool_outcome = outcomes[index] if index is not None else None
                outcome = self._apply_compute(placement, pool_outcome)
                self._record_outcome(key, outcome, tel)
                results.append(outcome.result)

            n = len(placements)
            if n:
                unique = len(seen)
                tel.counter("env.batches").inc()
                tel.histogram("env.batch_size").observe(n)
                tel.histogram("env.batch_dedupe_rate").observe(1.0 - unique / n)
                tel.gauge("env.eval_pool_workers").set(pool_workers)
                if pool_workers and jobs:
                    # Fraction of pool slots busy across the batch's waves.
                    waves = -(-len(jobs) // pool_workers)  # ceil division
                    tel.histogram("env.batch_pool_utilization").observe(
                        len(jobs) / (waves * pool_workers)
                    )
            return results

    def final_run(self, actions: Sequence[int], steps: int = 1000) -> float:
        """Per-step runtime of the final placement over a long run."""
        placement = self.resolve(actions)
        _, oom = self.check_memory(placement)
        if oom.any():
            return float("nan")
        makespan = self.makespan(placement)
        return self.protocol.final_evaluation(makespan, hash(placement), steps)
