"""Tests for the discrete-event list scheduler."""

import numpy as np
import pytest

from repro.graph import CompGraph, OpNode
from repro.analysis import critical_path
from repro.sim import ClusterSpec, CostModel, Placement, Scheduler
from tests.helpers import tiny_graph


def chain_graph(n: int, flops: float = 1e9) -> CompGraph:
    g = CompGraph("chain")
    prev = None
    for i in range(n):
        g.add_node(
            OpNode(f"op{i}", "MatMul", (64, 64), flops=flops),
            inputs=[prev] if prev else [],
        )
        prev = f"op{i}"
    return g


@pytest.fixture
def cluster():
    return ClusterSpec.default()


class TestScheduler:
    def test_single_device_makespan_is_sum(self, cluster):
        g = chain_graph(5)
        sched = Scheduler()
        times = sched.cost_model.op_time_matrix(g, cluster)
        res = sched.run_step(Placement([0] * 5, g, cluster))
        assert res.makespan == pytest.approx(times[:, 0].sum() + cluster.step_overhead)

    def test_chain_on_two_devices_adds_transfers(self, cluster):
        g = chain_graph(4)
        sched = Scheduler()
        same = sched.run_step(Placement([0, 0, 0, 0], g, cluster))
        split = sched.run_step(Placement([0, 1, 0, 1], g, cluster))
        assert split.makespan > same.makespan
        assert split.comm_bytes == pytest.approx(3 * 64 * 64 * 4)

    def test_parallel_branches_overlap(self, cluster):
        """Two independent heavy branches finish faster on two devices."""
        g = CompGraph("fork")
        g.add_node(OpNode("src", "Input", (1,)))
        g.add_node(OpNode("a", "Conv2D", (1,), flops=5e10), inputs=["src"])
        g.add_node(OpNode("b", "Conv2D", (1,), flops=5e10), inputs=["src"])
        g.add_node(OpNode("join", "Concat", (2,)), inputs=["a", "b"])
        sched = Scheduler()
        one = sched.run_step(Placement([0, 0, 0, 0], g, cluster))
        two = sched.run_step(Placement([0, 0, 1, 0], g, cluster))
        assert two.makespan < one.makespan

    def test_transfer_shipped_once_per_consumer_device(self, cluster):
        g = CompGraph("fanout")
        g.add_node(OpNode("src", "MatMul", (256, 256), flops=1e8))
        g.add_node(OpNode("c1", "ReLU", (256, 256)), inputs=["src"])
        g.add_node(OpNode("c2", "ReLU", (256, 256)), inputs=["src"])
        sched = Scheduler()
        res = sched.run_step(Placement([0, 1, 1], g, cluster))
        assert res.comm_bytes == pytest.approx(256 * 256 * 4)  # one shipment

    def test_link_serialization(self, cluster):
        """Two transfers on the same link queue; on different links they don't."""
        g = CompGraph("links")
        g.add_node(OpNode("a", "MatMul", (4096, 4096), flops=1.0))
        g.add_node(OpNode("b", "MatMul", (4096, 4096), flops=1.0))
        g.add_node(OpNode("c1", "ReLU", (1,)), inputs=["a"])
        g.add_node(OpNode("c2", "ReLU", (1,)), inputs=["b"])
        sched = Scheduler()
        same_link = sched.run_step(Placement([0, 0, 1, 1], g, cluster))
        diff_link = sched.run_step(Placement([0, 0, 1, 2], g, cluster))
        assert same_link.makespan > diff_link.makespan

    def test_makespan_at_least_critical_path(self, cluster):
        g = tiny_graph()
        sched = Scheduler()
        lb = critical_path(g, cluster)[0] + cluster.step_overhead
        rng = np.random.default_rng(0)
        for _ in range(20):
            placement = Placement(rng.integers(0, 5, g.num_nodes), g, cluster)
            assert sched.run_step(placement).makespan >= lb - 1e-12

    def test_makespan_at_least_busiest_device(self, cluster):
        g = tiny_graph()
        sched = Scheduler()
        res = sched.run_step(Placement([0, 0, 1, 1, 0, 2], g, cluster))
        assert res.makespan >= res.device_busy.max()

    def test_device_busy_accounts_all_ops(self, cluster):
        g = tiny_graph()
        sched = Scheduler()
        times = sched.cost_model.op_time_matrix(g, cluster)
        placement = Placement([0, 1, 2, 3, 4, 0], g, cluster)
        res = sched.run_step(placement)
        expected = sum(times[i, placement.device_of(i)] for i in range(6))
        assert res.device_busy.sum() == pytest.approx(expected)

    def test_empty_graph(self, cluster):
        g = CompGraph("empty")
        res = Scheduler().run_step(Placement([], g, cluster))
        assert res.makespan == 0.0

    def test_precomputed_op_times_match(self, cluster):
        g = tiny_graph()
        sched = Scheduler()
        placement = Placement([0, 1, 0, 1, 0, 1], g, cluster)
        times = sched.cost_model.op_time_matrix(g, cluster)
        a = sched.run_step(placement)
        b = sched.run_step(placement, op_times=times)
        assert a.makespan == pytest.approx(b.makespan)

    def test_custom_cost_model(self, cluster):
        g = chain_graph(3)
        fast = Scheduler(CostModel(backward_factor=1.0))
        slow = Scheduler(CostModel(backward_factor=10.0))
        p = Placement([0, 0, 0], g, cluster)
        assert fast.run_step(p).makespan < slow.run_step(p).makespan
