"""Tests for heterogeneous link topologies (NVLink-style overrides)."""

import numpy as np
import pytest

from repro.graph import CompGraph, OpNode
from repro.sim import ClusterSpec, CostModel, Placement, Scheduler
from repro.sim.device import GB


def layered_graph(layers: int = 12, width: int = 3) -> CompGraph:
    """A ~40-op layered DAG with cross-op edges inside each layer."""
    g = CompGraph("layered")
    g.add_node(OpNode("in", "Input", (4, 8)))
    prev = ["in"]
    for layer in range(layers):
        names = []
        for j in range(width):
            name = f"l{layer}/op{j}"
            g.add_node(
                OpNode(name, "MatMul", (16, 32), flops=1e7, param_bytes=4096),
                inputs=prev if j == 0 else [prev[0], f"l{layer}/op{j - 1}"],
            )
            names.append(name)
        prev = names
    g.add_node(OpNode("out", "Concat", (4,)), inputs=prev)
    return g


def two_op_chain():
    g = CompGraph("pair")
    g.add_node(OpNode("a", "MatMul", (4096, 4096), flops=1.0))
    g.add_node(OpNode("b", "ReLU", (4096, 4096)), inputs=["a"])
    return g


class TestLinkOverrides:
    def test_default_uniform(self):
        c = ClusterSpec.default()
        assert c.bandwidth_between(0, 1) == c.link_bandwidth
        assert c.bandwidth_between(2, 3) == c.link_bandwidth

    def test_nvlink_factory_pairs(self):
        c = ClusterSpec.nvlink(num_gpus=4, nvlink_bandwidth=20 * GB)
        assert c.bandwidth_between(0, 1) == 20 * GB
        assert c.bandwidth_between(1, 0) == 20 * GB  # order-insensitive
        assert c.bandwidth_between(2, 3) == 20 * GB
        assert c.bandwidth_between(1, 2) == c.link_bandwidth
        assert c.bandwidth_between(0, c.cpu_index) == c.link_bandwidth

    def test_transfer_time_uses_override(self):
        c = ClusterSpec.nvlink(num_gpus=2, nvlink_bandwidth=30 * GB)
        cm = CostModel()
        fast = cm.transfer_time(3 * GB, c, 0, 1)
        slow = cm.transfer_time(3 * GB, c, 0, c.cpu_index)
        assert fast < slow

    def test_scheduler_prefers_fast_link(self):
        """The same cut costs less across the NVLink pair."""
        g = two_op_chain()
        c = ClusterSpec.nvlink(num_gpus=4, nvlink_bandwidth=30 * GB)
        sched = Scheduler()
        nv = sched.run_step(Placement([0, 1], g, c))  # NVLink pair
        pcie = sched.run_step(Placement([1, 2], g, c))  # plain link
        assert nv.makespan < pcie.makespan

    def test_transfer_time_without_endpoints_uses_default(self):
        """A pair with no override pays the default link bandwidth."""
        c = ClusterSpec.nvlink(num_gpus=2)
        cm = CostModel()
        assert cm.transfer_time(c.link_bandwidth, c, 0, c.cpu_index) == pytest.approx(
            c.link_latency + 2.0
        )


class TestCustomTransferTime:
    def test_scalar_override_reaches_the_scheduler(self):
        """A ``transfer_time`` override on a ``CostModel`` subclass reaches
        the event loop through ``ScheduleTables`` and moves the makespan."""

        class SlowLinkCostModel(CostModel):
            # Scalar-only on purpose (``max`` of an array raises), so the
            # transfer table must call it once per entry.
            def transfer_time(self, nbytes, cluster, src, dst):
                return max(1e-3, 3.0 * super().transfer_time(nbytes, cluster, src, dst))

        g = layered_graph()
        c = ClusterSpec.default()
        placement = Placement(
            np.random.default_rng(9).integers(0, c.num_devices, g.num_nodes), g, c
        )
        stock = Scheduler().run_step(placement)
        custom = Scheduler(SlowLinkCostModel()).run_step(placement)
        assert stock.comm_bytes > 0
        assert custom.makespan > stock.makespan
