"""Tests for the joint training loop on a tiny workload."""

from dataclasses import replace

import numpy as np
import pytest

from repro.config import fast_profile
from repro.core import build_mars_agent
from repro.rl import JointTrainer, SearchHistory, TrainerConfig
from repro.rl.trainer import AGENT_DEVICE_FLOPS, AGENT_PASS_OVERHEAD, SearchRecord
from repro.sim import ClusterSpec, PlacementEnv
from repro.workloads import build_vgg16


@pytest.fixture(scope="module")
def setup():
    graph = build_vgg16(scale=0.25, batch_size=4)
    cluster = ClusterSpec.default()
    env = PlacementEnv(graph, cluster)
    cfg = fast_profile(seed=0, iterations=4)
    agent = build_mars_agent(graph, cluster, cfg)
    return graph, cluster, env, cfg, agent


class TestJointTrainer:
    def test_history_records_per_iteration(self, setup):
        graph, cluster, _, cfg, _ = setup
        env = PlacementEnv(graph, cluster)
        agent = build_mars_agent(graph, cluster, cfg)
        history = JointTrainer(agent, env, cfg.trainer).train()
        assert len(history.records) == 4
        assert history.total_samples == 4 * cfg.trainer.samples_per_policy
        assert history.best_placement is not None
        assert history.best_runtime < float("inf")

    def test_sim_clock_monotone(self, setup):
        graph, cluster, _, cfg, _ = setup
        env = PlacementEnv(graph, cluster)
        agent = build_mars_agent(graph, cluster, cfg)
        history = JointTrainer(agent, env, cfg.trainer).train()
        clocks = [r.sim_clock for r in history.records]
        assert all(b > a for a, b in zip(clocks, clocks[1:]))

    def test_pretrain_clock_included(self, setup):
        graph, cluster, _, cfg, _ = setup
        env = PlacementEnv(graph, cluster)
        agent = build_mars_agent(graph, cluster, cfg)
        history = SearchHistory(pretrain_clock=123.0)
        history = JointTrainer(agent, env, cfg.trainer).train(history)
        assert history.sim_clock > 123.0

    def test_early_stop_samples(self, setup):
        graph, cluster, _, cfg, _ = setup
        env = PlacementEnv(graph, cluster)
        agent = build_mars_agent(graph, cluster, cfg)
        tc = replace(cfg.trainer, iterations=50, early_stop_samples=20)
        history = JointTrainer(agent, env, tc).train()
        assert history.total_samples == 20

    def test_best_runtime_never_increases(self, setup):
        graph, cluster, _, cfg, _ = setup
        env = PlacementEnv(graph, cluster)
        agent = build_mars_agent(graph, cluster, cfg)
        history = JointTrainer(agent, env, cfg.trainer).train()
        bests = [r.best_runtime for r in history.records]
        assert all(b <= a + 1e-12 for a, b in zip(bests, bests[1:]))

    def test_unknown_algorithm_rejected(self, setup):
        graph, cluster, env, cfg, agent = setup
        with pytest.raises(ValueError):
            JointTrainer(agent, env, replace(cfg.trainer, algorithm="sarsa"))

    def test_reinforce_algorithm_runs(self, setup):
        graph, cluster, _, cfg, _ = setup
        env = PlacementEnv(graph, cluster)
        agent = build_mars_agent(graph, cluster, cfg)
        tc = replace(cfg.trainer, algorithm="reinforce", iterations=2)
        history = JointTrainer(agent, env, tc).train()
        assert len(history.records) == 2

    def test_reinforce_charges_its_whole_batch(self, setup):
        """REINFORCE makes one pass over the whole merged batch, so the
        simulated clock charges each pass the FLOPs of every sample (PPO's
        minibatch split does not apply)."""
        graph, cluster, _, cfg, _ = setup
        env = PlacementEnv(graph, cluster)
        agent = build_mars_agent(graph, cluster, cfg)
        tc = replace(cfg.trainer, algorithm="reinforce", iterations=2)
        trainer = JointTrainer(agent, env, tc)
        updates = []
        update = trainer.updater.update

        def record(rollout, advantages):
            stats = update(rollout, advantages)
            updates.append((rollout.batch_size, stats.passes))
            return stats

        trainer.updater.update = record
        history = trainer.train()
        assert updates and cfg.trainer.ppo.minibatches > 1
        agent_seconds = sum(
            passes * (agent.update_flops(batch) / AGENT_DEVICE_FLOPS + AGENT_PASS_OVERHEAD)
            for batch, passes in updates
        )
        assert history.sim_clock == pytest.approx(
            env.stats.wall_clock + agent_seconds, rel=1e-12
        )


class TestSearchHistory:
    def test_runtime_curve_filters_invalid(self):
        h = SearchHistory()
        h.records.append(
            SearchRecord(0, 10, [1.0, 100.0], [1.0], 1, 0, 1.0, -1.0, 5.0)
        )
        h.records.append(SearchRecord(1, 20, [2.0], [], 1, 0, 1.0, -1.0, 9.0))
        xs, ys = h.runtime_curve()
        assert xs.tolist() == [10]
        assert ys.tolist() == [1.0]

    def test_runtime_curve_max_filter(self):
        h = SearchHistory()
        h.records.append(
            SearchRecord(0, 10, [1.0, 30.0], [1.0, 30.0], 0, 0, 1.0, -1.0, 5.0)
        )
        xs, ys = h.runtime_curve(max_runtime=20.0)
        assert ys.tolist() == [1.0]

    def test_empty_history(self):
        h = SearchHistory()
        xs, ys = h.runtime_curve()
        assert len(xs) == 0 and h.total_samples == 0
