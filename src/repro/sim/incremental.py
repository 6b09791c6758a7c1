"""Incremental makespan re-evaluation for local placement mutations.

RL search, annealing and the serving layer's budget-bounded refinement
all evaluate thousands of candidate placements that differ from an
incumbent by a handful of op→device moves, yet each one pays a full
discrete-event re-simulation. This module removes that waste with a
*checkpoint-resume* scheme that is **bit-identical** to a full
:meth:`repro.sim.scheduler.Scheduler.run_step` pass by construction:

1. **Baseline.** When the environment anchors a placement (its current
   best, or an explicit anchor from a refinement loop), the schedule is
   simulated once by the scheduler's event loop, which also records (a) the
   processed-event index of every op completion and (b) periodic full
   snapshots of the simulator state (device queues, link clocks, the
   pending event heap, partial finish times).
2. **Divergence bound.** The event trajectory of a mutated placement is
   *provably identical* to the baseline's up to the first processed event
   that reads a moved op's device assignment. The scheduler only reads
   ``devices[m]`` when a predecessor of ``m`` completes (output routing),
   when ``m`` itself becomes ready (queue choice — always after its last
   input, hence after a predecessor completion), or at ``t=0`` for source
   ops. The first divergent event is therefore the earliest baseline
   completion among the predecessors of all moved ops.
3. **Resume.** Restore the newest snapshot at or before that event,
   swap in the mutated device vector, and drain the remaining events.
   Identical state + identical deterministic transition rules ⇒ results
   bit-identical to simulating the mutated placement from scratch —
   makespan, per-op finish times, per-device busy time, and the comm
   accumulators all match to the last ulp.

When the resimulated suffix would exceed ``max_dirty_fraction`` of the
baseline's events (or a *source* op moved, making ``t=0`` dirty), the
caller falls back to the full simulator — correctness never depends on
the delta being small, only speed does.

Baselines and resumes run the simulator's one event loop
(``sim/scheduler.py``'s ``_drain`` over the environment's shared
:class:`~repro.sim.scheduler.ScheduleTables`); this module adds only the
baseline snapshots, the divergence bound and the resume.
``tests/property/test_incremental_properties.py`` holds resume ≡ full
simulation over randomized (graph, delta, seed) cases;
``benchmarks/bench_incremental.py`` publishes the speedup curve
(``BENCH_incremental.json``) and ``docs/performance.md`` documents the
contract, the fallback semantics and how to profile the fast path.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.graph import CompGraph
from repro.sim.cluster import ClusterSpec
from repro.sim.costmodel import CostModel
from repro.sim.scheduler import (
    ScheduleResult,
    ScheduleTables,
    _drain,
    _initial_state,
    _result_from_state,
    _SimState,
)

__all__ = [
    "IncrementalEvalConfig",
    "ScheduleBaseline",
    "IncrementalEvaluator",
    "build_baseline",
    "resume_schedule",
]


@dataclass
class IncrementalEvalConfig:
    """Knobs for the incremental fast path (``MarsConfig.incremental``).

    ``enabled=False`` turns the whole machinery off — every evaluation
    takes the full-simulation path, as before this module existed. The
    runner exposes that as ``--no-incremental`` for A/B runs
    (see EXPERIMENTS.md, "Evaluation speed").
    """

    enabled: bool = True
    #: Fall back to full simulation when the events that must be replayed
    #: exceed this fraction of the baseline's total (a resume that replays
    #: nearly everything pays snapshot-restore cost for no skip).
    max_dirty_fraction: float = 0.75
    #: Full simulator-state snapshots recorded per baseline. More snapshots
    #: = finer resume granularity at O(V) memory each.
    checkpoints: int = 16
    #: Graphs smaller than this always use the full simulator — a single
    #: event-loop pass over a tiny graph is cheaper than bookkeeping.
    min_ops: int = 32

    def __post_init__(self) -> None:
        if not 0.0 < self.max_dirty_fraction <= 1.0:
            raise ValueError(
                f"max_dirty_fraction must be in (0, 1], got {self.max_dirty_fraction}"
            )
        if self.checkpoints < 1:
            raise ValueError("checkpoints must be >= 1")


@dataclass
class ScheduleBaseline:
    """One anchored placement's traced schedule + resume machinery."""

    devices: np.ndarray  # int64, defensive copy
    result: ScheduleResult  # what run_step would have returned
    completion_index: List[int]  # op -> processed-event index of completion
    total_events: int
    snapshots: List[_SimState]  # ascending events_done; [0] is initial state
    tables: ScheduleTables


def _expected_events(tables: ScheduleTables, devices: List[int]) -> int:
    """Exact processed-event count: one completion per op plus one arrival
    per unique (producer, consumer-device) cross-device shipment."""
    shipments = set()
    for op, successors in enumerate(tables.succ):
        dev = devices[op]
        for s in successors:
            dst = devices[s]
            if dst != dev:
                shipments.add((op, dst))
    return tables.n + len(shipments)


def build_baseline(
    tables: ScheduleTables,
    devices: np.ndarray,
    config: Optional[IncrementalEvalConfig] = None,
) -> ScheduleBaseline:
    """Simulate ``devices`` once, recording resume snapshots on the way."""
    config = config if config is not None else IncrementalEvalConfig()
    devices = np.ascontiguousarray(devices, dtype=np.int64).copy()
    devices_list = devices.tolist()
    total = _expected_events(tables, devices_list)
    snapshot_every = max(1, -(-total // config.checkpoints))  # ceil division
    completion_index = [0] * tables.n
    state = _initial_state(tables, devices_list)
    snapshots = [state.copy()]
    _drain(
        state,
        tables,
        devices_list,
        snapshot_every=snapshot_every,
        completion_index=completion_index,
        snapshots=snapshots,
    )
    return ScheduleBaseline(
        devices=devices,
        result=_result_from_state(state, tables),
        completion_index=completion_index,
        total_events=state.events_done,
        snapshots=snapshots,
        tables=tables,
    )


def first_divergent_event(
    baseline: ScheduleBaseline, new_devices: np.ndarray
) -> Optional[int]:
    """Index of the first baseline event whose processing can differ under
    ``new_devices``; ``None`` when a source op moved (dirty from t=0)."""
    moved = np.flatnonzero(baseline.devices != np.asarray(new_devices, dtype=np.int64))
    tables = baseline.tables
    completion = baseline.completion_index
    first = baseline.total_events
    for m in moved.tolist():
        preds = tables.pred[m]
        if not preds:
            return None  # t=0 routing depends on the moved op's device
        for p in preds:
            idx = completion[p]
            if idx < first:
                first = idx
    return first


def resume_schedule(
    baseline: ScheduleBaseline,
    new_devices: np.ndarray,
    config: IncrementalEvalConfig,
) -> Optional[ScheduleResult]:
    """Re-evaluate a mutated placement from the baseline's snapshots.

    Returns ``None`` when the delta is not worth resuming (source move, or
    dirty region above ``config.max_dirty_fraction``) — the caller then
    runs the full simulator. An unchanged placement returns the baseline's
    own result object.
    """
    new_devices = np.ascontiguousarray(new_devices, dtype=np.int64)
    if np.array_equal(new_devices, baseline.devices):
        return baseline.result
    total = baseline.total_events
    if total <= 0:
        return None
    first_div = first_divergent_event(baseline, new_devices)
    if first_div is None:
        return None
    if (total - first_div) > config.max_dirty_fraction * total:
        return None
    # Newest snapshot with events_done <= first_div (snapshot k is the
    # state *before* processing event index snapshots[k].events_done).
    positions = [s.events_done for s in baseline.snapshots]
    idx = bisect_right(positions, first_div) - 1
    state = baseline.snapshots[idx].copy()
    _drain(state, baseline.tables, new_devices.tolist())
    return _result_from_state(state, baseline.tables)


class IncrementalEvaluator:
    """Per-environment incremental-evaluation state (anchor + baseline).

    Owned by :class:`repro.sim.env.PlacementEnv`; the environment anchors
    it to the best valid placement seen so far (and refinement loops may
    re-anchor explicitly via ``PlacementEnv.anchor_incremental``).
    """

    def __init__(
        self,
        graph: CompGraph,
        cluster: ClusterSpec,
        cost_model: CostModel,
        op_times: np.ndarray,
        config: Optional[IncrementalEvalConfig] = None,
        tables: Optional[ScheduleTables] = None,
    ):
        self.config = config if config is not None else IncrementalEvalConfig()
        # The environment passes the tables its full simulations run on,
        # so both paths share one lowering of the graph and cost model.
        self.tables = (
            tables
            if tables is not None
            else ScheduleTables(graph, cluster, cost_model, op_times)
        )
        self.baseline: Optional[ScheduleBaseline] = None
        self.anchor_makespan: float = float("inf")
        self._pending_anchor: Optional[np.ndarray] = None
        self._usable = self.config.enabled and graph.num_nodes >= self.config.min_ops

    @property
    def ready(self) -> bool:
        """True when an incremental attempt could succeed right now."""
        return self._usable and (
            self.baseline is not None or self._pending_anchor is not None
        )

    def anchor(self, devices: np.ndarray, makespan: Optional[float] = None) -> None:
        """Re-anchor the baseline to ``devices`` (built lazily on first use)."""
        if not self._usable:
            return
        devices = np.ascontiguousarray(devices, dtype=np.int64)
        if self.baseline is not None and np.array_equal(devices, self.baseline.devices):
            return
        self._pending_anchor = devices.copy()
        self.baseline = None
        self.anchor_makespan = float("nan") if makespan is None else float(makespan)

    def maybe_anchor(self, devices: np.ndarray, makespan: float) -> None:
        """Anchor when ``makespan`` improves on the current anchor's."""
        if makespan < self.anchor_makespan or (
            self.baseline is None and self._pending_anchor is None
        ):
            self.anchor(devices, makespan)

    def _ensure_baseline(self) -> Optional[ScheduleBaseline]:
        if self.baseline is None and self._pending_anchor is not None:
            self.baseline = build_baseline(
                self.tables, self._pending_anchor, self.config
            )
            self._pending_anchor = None
            # An explicit anchor (annealing's incumbent, serving's greedy
            # decode) arrives without a makespan; the baseline build just
            # computed the noise-free one, so improvement tracking works.
            self.anchor_makespan = self.baseline.result.makespan
        return self.baseline

    def reschedule(self, devices: np.ndarray) -> Optional[ScheduleResult]:
        """Incremental re-evaluation; ``None`` means "fall back to full"."""
        if not self._usable:
            return None
        baseline = self._ensure_baseline()
        if baseline is None:
            return None
        return resume_schedule(baseline, devices, self.config)

    # -- run-state snapshots (core/runstate.py) ------------------------
    def state_dict(self) -> dict:
        anchor = (
            self.baseline.devices
            if self.baseline is not None
            else self._pending_anchor
        )
        return {
            "anchor": anchor if anchor is not None else np.empty(0, dtype=np.int64),
            "anchor_makespan": float(self.anchor_makespan),
        }

    def load_state_dict(self, state: dict) -> None:
        anchor = np.asarray(state["anchor"], dtype=np.int64)
        self.baseline = None
        if anchor.size:
            self._pending_anchor = anchor.copy()
        else:
            self._pending_anchor = None
        self.anchor_makespan = float(state["anchor_makespan"])
