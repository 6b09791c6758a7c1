"""Tests for the grouper-placer baseline agent."""

import numpy as np
import pytest

from repro.config import fast_profile
from repro.core import build_grouper_placer_agent
from repro.sim import ClusterSpec
from repro.workloads import build_vgg16


@pytest.fixture(scope="module")
def agent_setup():
    graph = build_vgg16(scale=0.25, batch_size=4)
    cluster = ClusterSpec.default()
    cfg = fast_profile(seed=0)
    agent = build_grouper_placer_agent(graph, cluster, cfg)
    return graph, cluster, agent


class TestGrouperPlacerAgent:
    def test_sample_shapes(self, agent_setup):
        graph, cluster, agent = agent_setup
        rollout = agent.sample(4, np.random.default_rng(0))
        assert rollout.placements.shape == (4, graph.num_nodes)
        assert rollout.internal["groups"].shape == (4, graph.num_nodes)
        assert rollout.internal["devices"].shape == (4, agent.num_groups)
        # Decisions: one per op (group) + one per group (device).
        assert rollout.old_logp.shape == (4, graph.num_nodes + agent.num_groups)

    def test_placement_consistent_with_internal(self, agent_setup):
        graph, cluster, agent = agent_setup
        rollout = agent.sample(3, np.random.default_rng(1))
        groups = rollout.internal["groups"]
        devices = rollout.internal["devices"]
        for b in range(3):
            expected = devices[b][groups[b]]
            assert np.array_equal(rollout.placements[b], expected)

    def test_evaluate_matches_sampled_logp(self, agent_setup):
        graph, cluster, agent = agent_setup
        rollout = agent.sample(3, np.random.default_rng(2))
        logp, entropy = agent.evaluate(rollout.internal)
        assert np.allclose(logp.data, rollout.old_logp, atol=1e-10)
        assert entropy.shape == logp.shape

    def test_gradients_reach_both_networks(self, agent_setup):
        graph, cluster, agent = agent_setup
        rollout = agent.sample(2, np.random.default_rng(3))
        agent.zero_grad()
        logp, _ = agent.evaluate(rollout.internal)
        logp.mean().backward()
        assert all(p.grad is not None for p in agent.grouper.parameters())
        assert all(p.grad is not None for p in agent.placer.parameters())

    def test_greedy_row_trails_the_samples(self, agent_setup):
        """``sample(n + 1, greedy=1)``: the leading rows are
        ``sample(n)``'s and draw the same uniforms, the last is the
        argmax decode."""
        _, _, agent = agent_setup
        r_mixed, r_sampled = np.random.default_rng(4), np.random.default_rng(4)
        mixed = agent.sample(5, r_mixed, greedy=1)
        sampled = agent.sample(4, r_sampled)
        greedy = agent.sample(1, None, greedy=1)
        assert np.array_equal(mixed.placements[:4], sampled.placements)
        for key in ("groups", "devices"):
            assert np.array_equal(mixed.internal[key][:4], sampled.internal[key])
        assert r_mixed.random() == r_sampled.random()
        assert np.array_equal(mixed.placements[4], greedy.placements[0])

    def test_num_groups_clamped_to_graph(self):
        from repro.graph import CompGraph, OpNode

        g = CompGraph()
        g.add_node(OpNode("a", "Input"))
        g.add_node(OpNode("b", "ReLU"), inputs=["a"])
        cluster = ClusterSpec.default()
        cfg = fast_profile()
        cfg.grouper.num_groups = 500
        agent = build_grouper_placer_agent(g, cluster, cfg)
        assert agent.num_groups == 2
