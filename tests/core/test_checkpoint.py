"""Tests for agent checkpointing."""

import json
import os

import numpy as np
import pytest

from repro.config import fast_profile, with_seed
from repro.core import build_mars_agent, greedy_placement, load_agent, save_agent
from repro.core.search import AGENT_BUILDERS, build_agent
from repro.graph import FeatureExtractor
from repro.sim import ClusterSpec, PlacementEnv
from repro.workloads import build_vgg16
from tests.helpers import tiny_graph


@pytest.fixture(scope="module")
def setting():
    graph = build_vgg16(scale=0.25, batch_size=4)
    cluster = ClusterSpec.default()
    cfg = fast_profile(seed=0)
    agent = build_mars_agent(graph, cluster, cfg)
    return graph, cluster, cfg, agent


class TestCheckpoint:
    def test_roundtrip_same_policy(self, setting, tmp_path):
        graph, cluster, cfg, agent = setting
        path = str(tmp_path / "agent")
        save_agent(path, agent, "mars", workload=graph.name)
        restored, meta = load_agent(path, graph, cluster, with_seed(cfg, 77))
        assert meta["workload"] == graph.name
        a = agent.sample(2, np.random.default_rng(3))
        b = restored.sample(2, np.random.default_rng(3))
        assert np.array_equal(a.placements, b.placements)

    def test_metadata_sidecar(self, setting, tmp_path):
        graph, cluster, cfg, agent = setting
        path = str(tmp_path / "agent")
        save_agent(path, agent, "mars")
        import json

        meta = json.load(open(path + ".json"))
        assert meta["num_ops"] == graph.num_nodes
        assert meta["num_parameters"] == agent.num_parameters()

    def test_device_count_mismatch_rejected(self, setting, tmp_path):
        graph, cluster, cfg, agent = setting
        path = str(tmp_path / "agent")
        save_agent(path, agent, "mars")
        small = ClusterSpec.default(num_gpus=2)
        with pytest.raises(ValueError, match="devices"):
            load_agent(path, graph, small, cfg)

    def test_greedy_placement_deterministic(self, setting):
        graph, cluster, cfg, agent = setting
        env = PlacementEnv(graph, cluster)
        a = greedy_placement(agent, env)
        b = greedy_placement(agent, env)
        assert np.array_equal(a, b)
        assert a.shape == (graph.num_nodes,)

    def test_save_is_atomic_no_temp_left_behind(self, setting, tmp_path):
        graph, cluster, cfg, agent = setting
        path = str(tmp_path / "agent")
        save_agent(path, agent, "mars", config=cfg)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "agent.json",
            "agent.npz",
        ]

    def test_sidecar_records_feature_dim_and_echo(self, setting, tmp_path):
        graph, cluster, cfg, agent = setting
        path = str(tmp_path / "agent")
        save_agent(path, agent, "mars", workload=graph.name, config=cfg)
        meta = json.load(open(path + ".json"))
        assert meta["feature_dim"] == FeatureExtractor().dim
        echo = meta["config"]
        assert echo["seed"] == cfg.seed
        assert echo["encoder"]["hidden_dim"] == cfg.encoder.hidden_dim
        assert echo["placer"]["hidden_size"] == cfg.placer.hidden_size

    def test_load_without_config_uses_echo(self, setting, tmp_path):
        graph, cluster, cfg, agent = setting
        path = str(tmp_path / "agent")
        save_agent(path, agent, "mars", config=cfg)
        restored, _ = load_agent(path, graph, cluster)  # config=None
        a = agent.sample(1, np.random.default_rng(0), greedy=1)
        b = restored.sample(1, np.random.default_rng(0), greedy=1)
        assert np.array_equal(a.placements, b.placements)

    def test_load_without_config_or_echo_is_a_clear_error(self, setting, tmp_path):
        graph, cluster, cfg, agent = setting
        path = str(tmp_path / "agent")
        save_agent(path, agent, "mars")  # no config echo
        with pytest.raises(ValueError, match="config echo"):
            load_agent(path, graph, cluster)

    def test_feature_dim_mismatch_is_a_clear_error(self, setting, tmp_path):
        graph, cluster, cfg, agent = setting
        path = str(tmp_path / "agent")
        save_agent(path, agent, "mars", config=cfg)
        meta = json.load(open(path + ".json"))
        meta["feature_dim"] += 7
        json.dump(meta, open(path + ".json", "w"))
        with pytest.raises(ValueError, match="feature"):
            load_agent(path, graph, cluster, cfg)


class TestRoundTripAllKinds:
    """Every registered agent kind must survive save -> load -> place."""

    @pytest.fixture(scope="class")
    def setting(self):
        graph = tiny_graph()
        cluster = ClusterSpec.default()
        cfg = fast_profile(seed=1)
        return graph, cluster, cfg

    @pytest.mark.parametrize("kind", sorted(AGENT_BUILDERS))
    def test_roundtrip_identical_greedy_placement(self, setting, tmp_path, kind):
        graph, cluster, cfg = setting
        agent, _ = build_agent(kind, graph, cluster, cfg, None)
        path = str(tmp_path / "agent")
        save_agent(path, agent, kind, workload=graph.name, config=cfg)
        restored, meta = load_agent(path, graph, cluster)
        assert meta["agent_kind"] == kind
        env = PlacementEnv(graph, cluster)
        assert np.array_equal(
            greedy_placement(agent, env), greedy_placement(restored, env)
        )

    def test_transfer_load_onto_other_graph(self, setting, tmp_path):
        graph, cluster, cfg = setting
        agent, _ = build_agent("mars_no_pretrain", graph, cluster, cfg, None)
        path = str(tmp_path / "agent")
        save_agent(path, agent, "mars", workload=graph.name, config=cfg)
        other = build_vgg16(scale=0.25, batch_size=4)
        restored, _ = load_agent(path, other, cluster)
        env = PlacementEnv(other, cluster)
        placement = greedy_placement(restored, env)
        assert placement.shape == (other.num_nodes,)
        assert placement.max() < cluster.num_devices
