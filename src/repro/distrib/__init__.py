"""Distributed actor–learner training (docs/architecture.md
§"Distributed training").

Topology: N rollout-worker processes (``worker.py``), each owning a
:class:`~repro.sim.env.PlacementEnv` shard and a policy replica, push
:class:`~repro.distrib.messages.SampleBatch` messages through bounded
per-worker queues to the central learner (``learner.py``), which runs
the ordinary :meth:`~repro.rl.trainer.JointTrainer.train` loop on those
batches and broadcasts fresh weights after every update through the
versioned :class:`~repro.distrib.store.VariableStore`.

Configured by :class:`repro.config.DistribConfig` on
``MarsConfig.distrib`` (re-exported here for convenience);
``optimize_placement`` dispatches to :func:`train_distributed` whenever
``config.distrib.workers > 0``.
"""

from repro.config import DistribConfig
from repro.distrib.learner import Supervisor, train_distributed
from repro.distrib.messages import SampleBatch
from repro.distrib.store import VariableStore
from repro.distrib.worker import WorkerSpec, replica_build_args, worker_main

__all__ = [
    "DistribConfig",
    "SampleBatch",
    "Supervisor",
    "VariableStore",
    "WorkerSpec",
    "replica_build_args",
    "train_distributed",
    "worker_main",
]
