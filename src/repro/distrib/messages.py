"""Wire types crossing the worker → learner sample queues.

One :class:`SampleBatch` is one worker rollout: the sampled
:class:`~repro.rl.policy.AgentRollout` (flattened to plain arrays so the
message pickles without importing agent classes in the unpickler), the
measurement results the worker's environment shard produced for it, and
the provenance the learner needs for staleness accounting and
telemetry. Everything is numpy/str/float — no live
objects, no file handles — so a message survives the queue's pickle
round-trip and a half-written message from a killed worker can only
break its *own* queue (each worker owns a private queue precisely so a
corrupt pipe is discarded with the worker).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro.rl.policy import AgentRollout
from repro.sim.measurement import MeasurementResult


@dataclass
class SampleBatch:
    """One rollout's samples + measurements, shipped worker → learner."""

    # -- provenance ------------------------------------------------------
    worker_id: int  # slot index, stable across restarts
    generation: int  # bumped per restart of this slot
    seq: int  # per-(worker, generation) batch counter, from 0
    policy_version: int  # VariableStore version the rollout was sampled at

    # -- the rollout, flattened (see AgentRollout) -----------------------
    placements: np.ndarray  # (B, num_ops)
    internal: Dict[str, np.ndarray] = field(default_factory=dict)
    old_logp: np.ndarray = None  # type: ignore[assignment]  # (B, K)

    # -- per-sample measurement results (MeasurementResult, columnar) ----
    per_step_time: np.ndarray = None  # type: ignore[assignment]  # (B,)
    valid: np.ndarray = None  # type: ignore[assignment]  # (B,) bool
    truncated: np.ndarray = None  # type: ignore[assignment]  # (B,) bool
    steps_run: np.ndarray = None  # type: ignore[assignment]  # (B,)
    wall_clock: np.ndarray = None  # type: ignore[assignment]  # (B,)

    # -- accounting ------------------------------------------------------
    #: Simulated seconds this rollout added to the worker env's clock
    #: (cache hits charge reinit_cost, misses a full measurement — the
    #: learner folds this into the global sim clock).
    env_wall_delta: float = 0.0
    #: Real seconds the worker spent on sample + evaluate, and when it
    #: started — replayed into the learner's trace as a distrib.rollout
    #: span (workers cannot write the learner's event log directly).
    duration_s: float = 0.0
    start_unix: float = 0.0

    @property
    def batch_size(self) -> int:
        return int(self.placements.shape[0])

    def rollout(self) -> AgentRollout:
        """Reassemble the rollout for the learner's evaluate/update path."""
        return AgentRollout(
            placements=self.placements,
            internal=self.internal,
            old_logp=self.old_logp,
        )

    def results(self) -> "list[MeasurementResult]":
        """Reassemble the per-sample measurement results, in order."""
        return [
            MeasurementResult(
                per_step_time=float(self.per_step_time[i]),
                valid=bool(self.valid[i]),
                truncated=bool(self.truncated[i]),
                steps_run=int(self.steps_run[i]),
                wall_clock=float(self.wall_clock[i]),
            )
            for i in range(self.batch_size)
        ]

    @staticmethod
    def build(
        worker_id: int,
        generation: int,
        seq: int,
        policy_version: int,
        rollout: AgentRollout,
        results: "list[MeasurementResult]",
        env_wall_delta: float,
        duration_s: float,
        start_unix: float,
    ) -> "SampleBatch":
        if len(results) != rollout.batch_size:
            raise ValueError(
                f"rollout has {rollout.batch_size} samples, got {len(results)} results"
            )
        return SampleBatch(
            worker_id=worker_id,
            generation=generation,
            seq=seq,
            policy_version=policy_version,
            placements=rollout.placements,
            internal=dict(rollout.internal),
            old_logp=rollout.old_logp,
            per_step_time=np.array([r.per_step_time for r in results], dtype=np.float64),
            valid=np.array([r.valid for r in results], dtype=bool),
            truncated=np.array([r.truncated for r in results], dtype=bool),
            steps_run=np.array([r.steps_run for r in results], dtype=np.int64),
            wall_clock=np.array([r.wall_clock for r in results], dtype=np.float64),
            env_wall_delta=float(env_wall_delta),
            duration_s=float(duration_s),
            start_unix=float(start_unix),
        )
