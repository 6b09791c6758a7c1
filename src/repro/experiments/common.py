"""Shared experiment infrastructure.

Defines the evaluation workloads (scaled to run on a CPU-only laptop while
preserving the paper's feasibility structure — see DESIGN.md), a results
cache so figures/tables that share runs don't retrain agents, and plain
text table formatting.

The machine model per workload: the paper runs every workload on the same
4x P100 (12 GB) box. Our workload generators shrink the *repeated*
structure of big models (GNMT's unrolled length) to keep RL runs fast; to
preserve the original memory-pressure ratio (can it fit on one GPU? on
two?) the GNMT experiment scales GPU memory by the same factor. BERT and
Inception run at full structural scale against the default 12 GB machine.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import MarsConfig, fast_profile, with_seed
from repro.core.search import OptimizationResult, optimize_placement
from repro.graph import CompGraph, FeatureExtractor
from repro.sim import ClusterSpec, MeasurementProtocol, PlacementEnv
from repro.telemetry import start_run, use_telemetry
from repro.utils.logging import get_logger
from repro.utils.serialization import write_json_atomic
from repro.workloads import get_workload

logger = get_logger("repro.experiments")


class RunInterrupted(RuntimeError):
    """An agent run stopped on SIGTERM/SIGINT after snapshotting.

    Carries the partial :class:`RunSummary` (which is deliberately *not*
    cached — a resumed invocation must re-enter the same run and finish
    it, not read a half-length curve from the cache).
    """

    def __init__(self, summary: "RunSummary"):
        super().__init__(
            f"run {summary.workload}/{summary.agent_kind} interrupted by "
            f"signal after {summary.iterations} requested iterations; "
            "state snapshotted — rerun with --resume to continue"
        )
        self.summary = summary


@dataclass(frozen=True)
class WorkloadSpec:
    """One benchmark workload and the machine/budgets it is evaluated on."""

    key: str
    title: str
    workload: str
    workload_kwargs: Dict = field(default_factory=dict)
    gpu_memory_gb: float = 12.0
    num_gpus: int = 4
    bad_step_threshold: Optional[float] = None
    iterations: int = 40  # max RL policy iterations in the fast profile
    # Stop when no >=1% improvement for this many samples — training time
    # (Fig. 8) then reflects convergence speed, as on the paper's testbed.
    # Generous by default: quality (Table 2) takes precedence over an early
    # exit.
    patience_samples: Optional[int] = 400

    def build_graph(self) -> CompGraph:
        return get_workload(self.workload, **self.workload_kwargs)

    def build_cluster(self) -> ClusterSpec:
        return ClusterSpec.default(num_gpus=self.num_gpus, gpu_memory_gb=self.gpu_memory_gb)

    def build_protocol(self) -> MeasurementProtocol:
        return MeasurementProtocol(bad_step_threshold=self.bad_step_threshold)


WORKLOAD_SPECS: Dict[str, WorkloadSpec] = {
    "inception_v3": WorkloadSpec(
        key="inception_v3",
        title="Inception-V3",
        workload="inception_v3",
        bad_step_threshold=2.0,
        iterations=70,
    ),
    "gnmt4": WorkloadSpec(
        key="gnmt4",
        title="GNMT-4",
        workload="gnmt4",
        workload_kwargs={"scale": 0.5},
        gpu_memory_gb=6.0,  # memory scaled with the halved unroll length
        bad_step_threshold=20.0,
        iterations=100,
    ),
    "bert": WorkloadSpec(
        key="bert",
        title="BERT",
        workload="bert",
        bad_step_threshold=30.0,
        iterations=140,
    ),
    # Training-only workloads for the generalization study (Table 3).
    "vgg16": WorkloadSpec(key="vgg16", title="VGG16", workload="vgg16", iterations=40),
    "seq2seq": WorkloadSpec(
        key="seq2seq", title="Seq2seq", workload="seq2seq", iterations=40
    ),
    "transformer": WorkloadSpec(
        key="transformer", title="Transformer", workload="transformer", iterations=40
    ),
}

#: The three workloads every table/figure evaluates on.
EVAL_WORKLOADS: Tuple[str, ...] = ("inception_v3", "gnmt4", "bert")


@dataclass
class RunSummary:
    """The serializable essence of one agent-training run."""

    workload: str
    agent_kind: str
    seed: int
    iterations: int
    best_runtime: float
    final_runtime: float
    sim_clock: float
    pretrain_clock: float
    curve_samples: List[int]
    curve_runtimes: List[float]
    best_curve: List[float]
    invalid_total: int

    @classmethod
    def from_result(cls, result: OptimizationResult, seed: int, iterations: int) -> "RunSummary":
        xs, ys = result.history.runtime_curve()
        return cls(
            workload=result.workload,
            agent_kind=result.agent_kind,
            seed=seed,
            iterations=iterations,
            best_runtime=result.history.best_runtime,
            final_runtime=result.final_runtime,
            sim_clock=result.history.sim_clock,
            pretrain_clock=result.history.pretrain_clock,
            curve_samples=[int(x) for x in xs],
            curve_runtimes=[float(y) for y in ys],
            best_curve=[r.best_runtime for r in result.history.records],
            invalid_total=sum(r.n_invalid for r in result.history.records),
        )


class ExperimentContext:
    """Runs agents against the benchmark workloads with caching.

    Results are cached in memory and, optionally, on disk, keyed by
    (workload, agent kind, seed, iterations) — Fig. 7, Fig. 8 and Table 2
    share the same underlying runs, exactly as in the paper.
    """

    def __init__(
        self,
        config: Optional[MarsConfig] = None,
        cache_dir: Optional[str] = None,
        specs: Optional[Dict[str, WorkloadSpec]] = None,
        telemetry_dir: Optional[str] = None,
        snapshot_dir: Optional[str] = None,
        resume: bool = False,
    ):
        self.config = config or fast_profile()
        self.specs = specs or WORKLOAD_SPECS
        self.cache_dir = cache_dir
        # When set, every uncached agent run opens a telemetry run
        # directory (JSONL events + manifest + metrics) under this base.
        self.telemetry_dir = telemetry_dir
        # When set, every uncached agent run writes crash-safe resumable
        # snapshots under ``<snapshot_dir>/<cache_key>/`` (see
        # docs/architecture.md §"Run state & resume"); ``resume=True``
        # restores the newest complete snapshot before training.
        self.snapshot_dir = snapshot_dir
        self.resume = resume
        self._memory_cache: Dict[str, RunSummary] = {}
        self._graphs: Dict[str, CompGraph] = {}
        self.feature_extractor = FeatureExtractor()
        if cache_dir:
            os.makedirs(cache_dir, exist_ok=True)

    # ------------------------------------------------------------------
    def graph(self, workload_key: str) -> CompGraph:
        if workload_key not in self._graphs:
            self._graphs[workload_key] = self.specs[workload_key].build_graph()
        return self._graphs[workload_key]

    def static_runtime(self, workload_key: str, placement_fn) -> float:
        """Per-step runtime of a static baseline placement (NaN on OOM)."""
        spec = self.specs[workload_key]
        graph = self.graph(workload_key)
        cluster = spec.build_cluster()
        env = PlacementEnv(graph, cluster, protocol=spec.build_protocol())
        placement = placement_fn(graph, cluster)
        return env.final_run(placement.devices)

    # ------------------------------------------------------------------
    def memo(self, key: str, fn):
        """Memoize an arbitrary JSON-serializable result under ``key``.

        Used for expensive results that are not full agent runs (e.g. the
        generalization pipeline of Table 3).
        """
        mem_key = "memo__" + key
        if mem_key in self._memory_cache:
            return self._memory_cache[mem_key]
        path = self._disk_path(mem_key)
        if path and os.path.exists(path):
            with open(path) as fh:
                value = json.load(fh)
            self._memory_cache[mem_key] = value
            return value
        value = fn()
        self._memory_cache[mem_key] = value
        if path:
            write_json_atomic(path, value)
        return value

    def _cache_key(self, workload_key: str, agent_kind: str, seed: int, iterations: int) -> str:
        return f"{workload_key}__{agent_kind.replace(':', '-')}__s{seed}__i{iterations}"

    def _disk_path(self, key: str) -> Optional[str]:
        return os.path.join(self.cache_dir, key + ".json") if self.cache_dir else None

    def run(
        self,
        workload_key: str,
        agent_kind: str,
        seed: int = 0,
        iterations: Optional[int] = None,
    ) -> RunSummary:
        spec = self.specs[workload_key]
        iterations = iterations if iterations is not None else spec.iterations
        key = self._cache_key(workload_key, agent_kind, seed, iterations)
        if key in self._memory_cache:
            return self._memory_cache[key]
        path = self._disk_path(key)
        if path and os.path.exists(path):
            with open(path) as fh:
                summary = RunSummary(**json.load(fh))
            self._memory_cache[key] = summary
            return summary

        logger.info("running %s / %s (seed %d, %d iterations)", workload_key, agent_kind, seed, iterations)
        from dataclasses import replace

        config = with_seed(self.config, seed)
        config = replace(
            config,
            trainer=replace(
                config.trainer,
                iterations=iterations,
                patience_samples=spec.patience_samples,
            ),
        )
        tel = None
        if self.telemetry_dir:
            tel = start_run(
                key,
                self.telemetry_dir,
                manifest={
                    "workload": workload_key,
                    "agent_kind": agent_kind,
                    "seed": seed,
                    "iterations": iterations,
                    "cache_key": key,
                },
            )
        run_snapshot_dir = (
            os.path.join(self.snapshot_dir, key) if self.snapshot_dir else None
        )
        try:
            with use_telemetry(tel):
                result = optimize_placement(
                    self.graph(workload_key),
                    spec.build_cluster(),
                    agent_kind,
                    config,
                    protocol=spec.build_protocol(),
                    feature_extractor=self.feature_extractor,
                    snapshot_dir=run_snapshot_dir,
                    resume=self.resume,
                )
        finally:
            if tel is not None:
                tel.close()
        summary = RunSummary.from_result(result, seed, iterations)
        halt = result.history.halt_reason
        if halt is not None and halt.startswith("signal"):
            # Don't cache a partial run: resuming must re-enter it.
            raise RunInterrupted(summary)
        self._memory_cache[key] = summary
        if path:
            write_json_atomic(path, asdict(summary))
        return summary


# ----------------------------------------------------------------------
# Formatting
# ----------------------------------------------------------------------
def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[str]], title: str = ""
) -> str:
    widths = [
        max(len(str(headers[i])), *(len(str(r[i])) for r in rows)) if rows else len(str(headers[i]))
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in rows:
        lines.append(" | ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def fmt_runtime(value: float) -> str:
    return "OOM" if (value is None or np.isnan(value)) else f"{value:.3f}"
