"""A distributed search with one in-process worker ≡ a single-process one.

``train_distributed`` is driven with a fake supervisor and batch source
that stand for one live worker: each batch is sampled by the learner's
own agent with ``trainer.rng``, measured in the learner's env and
stamped with the store's current version (staleness 0). That is exactly
what ``JointTrainer.train`` does locally, so the two ``SearchHistory``
objects and the final parameters must be bit-equal. Any drift between
the distributed iteration and the single-process one shows here.
"""

from dataclasses import replace

import numpy as np

from repro.config import fast_profile
from repro.core.search import build_agent
from repro.distrib import learner as learner_mod
from repro.distrib import train_distributed
from repro.distrib.messages import SampleBatch
from repro.rl.trainer import JointTrainer, SearchHistory
from repro.sim import ClusterSpec, PlacementEnv
from repro.telemetry import Telemetry
from tests.helpers import tiny_graph

CLUSTER = ClusterSpec.default()


class _OneWorkerSupervisor:
    """Stands for one live worker; spawns nothing."""

    alive_count = 1

    def __init__(self, ctx, cfg, spec_factory, store, shutdown, heartbeat, telemetry):
        self.store = store
        self.handles = []

    def start_all(self, workers):
        pass

    def check(self):
        return 1

    def queue_depth(self):
        return 0

    def stop(self):
        pass


def _inline_batches(trainer):
    """A batch source whose batches the learner's own agent produces."""

    class InlineBatches:
        def __init__(self, supervisor, cfg):
            self.store = supervisor.store
            self.seq = 0

        def next_batch(self):
            env = trainer.env
            clock0 = env.stats.wall_clock
            rollout = trainer.agent.sample(trainer.config.samples_per_policy, trainer.rng)
            results = env.evaluate_batch(rollout.placements)
            batch = SampleBatch.build(
                worker_id=0,
                generation=0,
                seq=self.seq,
                policy_version=self.store.version,
                rollout=rollout,
                results=results,
                env_wall_delta=env.stats.wall_clock - clock0,
                duration_s=0.0,
                start_unix=0.0,
            )
            self.seq += 1
            return batch

    return InlineBatches


def _trainer(cfg, graph):
    env = PlacementEnv(graph, CLUSTER)
    agent, pretrain_clock = build_agent("mars", graph, CLUSTER, cfg, None)
    trainer = JointTrainer(agent, env, cfg.trainer, health=cfg.health)
    return trainer, SearchHistory(pretrain_clock=pretrain_clock)


def _hex(values):
    return [float(v).hex() for v in values]


def _digest(history):
    return {
        "records": [
            {
                "iteration": r.iteration,
                "samples_so_far": r.samples_so_far,
                "runtimes": _hex(r.runtimes),
                "valid_runtimes": _hex(r.valid_runtimes),
                "n_invalid": r.n_invalid,
                "n_truncated": r.n_truncated,
                "best_runtime": float(r.best_runtime).hex(),
                "baseline": float(r.baseline).hex(),
                "sim_clock": float(r.sim_clock).hex(),
            }
            for r in history.records
        ],
        "best_runtime": float(history.best_runtime).hex(),
        "sim_clock": float(history.sim_clock).hex(),
        "halt_reason": history.halt_reason,
    }


def test_one_inline_worker_matches_single_process(monkeypatch):
    graph = tiny_graph()
    cfg = fast_profile(seed=0, iterations=6)
    cfg = replace(cfg, distrib=replace(cfg.distrib, workers=1))

    local_trainer, local_history = _trainer(cfg, graph)
    dist_trainer, dist_history = _trainer(cfg, graph)
    local = local_trainer.train(local_history)

    monkeypatch.setattr(learner_mod, "Supervisor", _OneWorkerSupervisor)
    monkeypatch.setattr(learner_mod, "_BatchSource", _inline_batches(dist_trainer))
    tel = Telemetry(name="parity")
    dist = train_distributed(dist_trainer, cfg, "mars", history=dist_history, telemetry=tel)

    # The distributed path really ran (no single-process fallback).
    snap = tel.metrics.snapshot()
    assert snap["counters"]["distrib.batches"]["value"] == 6
    assert len(local.records) == 6
    assert _digest(dist) == _digest(local)
    np.testing.assert_array_equal(dist.best_placement, local.best_placement)
    local_params = local_trainer.agent.state_dict()
    dist_params = dist_trainer.agent.state_dict()
    assert local_params.keys() == dist_params.keys()
    for key, value in local_params.items():
        np.testing.assert_array_equal(dist_params[key], value, err_msg=key)
