"""Tests for static placement baselines."""

import numpy as np
import pytest

from repro.core.baselines import (
    balanced_chain_placement,
    gpu_only_placement,
    human_expert_placement,
)
from repro.sim import ClusterSpec, MemoryModel, PlacementEnv
from repro.workloads import build_bert, build_gnmt, build_inception_v3


@pytest.fixture(scope="module")
def cluster():
    return ClusterSpec.default()


@pytest.fixture(scope="module")
def inception():
    return build_inception_v3(scale=0.34)


@pytest.fixture(scope="module")
def gnmt():
    return build_gnmt(scale=0.3)


class TestGpuOnly:
    def test_everything_on_first_gpu(self, inception, cluster):
        p = gpu_only_placement(inception, cluster)
        non_cpu = [i for i, n in enumerate(inception.nodes) if not n.cpu_only]
        assert all(p.device_of(i) == 0 for i in non_cpu)

    def test_cpu_only_stays_on_cpu(self, inception, cluster):
        p = gpu_only_placement(inception, cluster)
        cpu_ops = [i for i, n in enumerate(inception.nodes) if n.cpu_only]
        assert cpu_ops and all(p.device_of(i) == cluster.cpu_index for i in cpu_ops)

    def test_ooms_for_bert(self, cluster):
        """Table 2: GPU-Only is OOM for BERT."""
        bert = build_bert()
        report = MemoryModel().check(gpu_only_placement(bert, cluster))
        assert not report.fits


class TestHumanExpert:
    def test_vision_model_single_gpu(self, inception, cluster):
        p = human_expert_placement(inception, cluster)
        assert p == gpu_only_placement(inception, cluster)

    def test_gnmt_round_robin_layers(self, gnmt, cluster):
        p = human_expert_placement(gnmt, cluster)
        l0 = gnmt.index_of("enc/l0/cell_t0")
        l1 = gnmt.index_of("enc/l1/cell_t0")
        l2 = gnmt.index_of("enc/l2/cell_t0")
        assert p.device_of(l0) == 0
        assert p.device_of(l1) == 1
        assert p.device_of(l2) == 2

    def test_gnmt_softmax_on_last_gpu(self, gnmt, cluster):
        p = human_expert_placement(gnmt, cluster)
        assert p.device_of(gnmt.index_of("proj/logits_t0")) == cluster.gpu_indices[-1]

    def test_gnmt_spread_beats_single_gpu(self, gnmt, cluster):
        env = PlacementEnv(gnmt, cluster)
        expert = env.makespan(human_expert_placement(gnmt, cluster))
        single = env.makespan(gpu_only_placement(gnmt, cluster))
        assert expert < single

    def test_bert_expert_is_single_gpu(self, cluster):
        bert = build_bert(scale=0.3)
        p = human_expert_placement(bert, cluster)
        assert p == gpu_only_placement(bert, cluster)


class TestChainAndPartitioner:
    def test_balanced_chain_uses_k_devices(self, inception, cluster):
        p = balanced_chain_placement(inception, cluster, k=4)
        used = {p.device_of(i) for i in range(inception.num_nodes)}
        assert len(used & set(cluster.gpu_indices)) == 4

    def test_balanced_chain_balances_compute(self, gnmt, cluster):
        from repro.sim import CostModel

        p = balanced_chain_placement(gnmt, cluster, k=4)
        times = CostModel().op_time_matrix(gnmt, cluster)
        loads = np.zeros(cluster.num_devices)
        for i in range(gnmt.num_nodes):
            loads[p.device_of(i)] += times[i, p.device_of(i)]
        gpu_loads = loads[cluster.gpu_indices]
        assert gpu_loads.max() < 2.5 * max(gpu_loads.mean(), 1e-9)

    def test_balanced_chain_empty_graph(self, cluster):
        from repro.graph import CompGraph

        p = balanced_chain_placement(CompGraph("empty"), cluster)
        assert p.devices.shape == (0,)

    def test_balanced_chain_k1_single_gpu(self, inception, cluster):
        p = balanced_chain_placement(inception, cluster, k=1)
        non_cpu = [i for i, n in enumerate(inception.nodes) if not n.cpu_only]
        first_gpu = cluster.gpu_indices[0]
        assert non_cpu and all(p.device_of(i) == first_gpu for i in non_cpu)

    def test_balanced_chain_single_node_graph(self, cluster):
        from repro.graph import CompGraph, OpNode

        g = CompGraph("one")
        g.add_node(OpNode("only", "MatMul", (4, 4), flops=1e6))
        p = balanced_chain_placement(g, cluster, k=4)
        assert p.device_of(0) in cluster.gpu_indices
