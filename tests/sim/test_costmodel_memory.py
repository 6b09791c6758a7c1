"""Tests for the cost model and memory accounting."""

import numpy as np
import pytest

from repro.graph import OpNode
from repro.sim import ClusterSpec, CostModel, DeviceSpec, MemoryModel, Placement
from tests.helpers import tiny_graph


class TestCostModel:
    def test_launch_overhead_floor(self):
        cm = CostModel()
        gpu = DeviceSpec.p100(0)
        node = OpNode("noop", "Identity", output_shape=(1,))
        assert cm.op_time(node, gpu) == pytest.approx(gpu.launch_overhead)

    def test_compute_bound_op(self):
        cm = CostModel()
        gpu = DeviceSpec.p100(0)
        node = OpNode("big", "Conv2D", output_shape=(1,), flops=1e12)
        expected = gpu.launch_overhead + 3e12 / (gpu.peak_flops * 0.45)
        assert cm.op_time(node, gpu) == pytest.approx(expected)

    def test_memory_bound_op(self):
        cm = CostModel()
        gpu = DeviceSpec.p100(0)
        node = OpNode("bw", "ReLU", output_shape=(1,), flops=1.0, activation_bytes=1e9)
        expected = gpu.launch_overhead + 3e9 / gpu.mem_bandwidth
        assert cm.op_time(node, gpu) == pytest.approx(expected)

    def test_gpu_faster_than_cpu_on_heavy_op(self):
        cm = CostModel()
        node = OpNode("conv", "Conv2D", output_shape=(1,), flops=1e10)
        assert cm.op_time(node, DeviceSpec.p100(0)) < cm.op_time(node, DeviceSpec.xeon())

    def test_cpu_faster_on_tiny_op(self):
        """The effect the paper observes: small ops run better on the CPU."""
        cm = CostModel()
        node = OpNode("tiny", "Identity", output_shape=(4,), flops=10.0)
        assert cm.op_time(node, DeviceSpec.xeon()) < cm.op_time(node, DeviceSpec.p100(0))

    def test_matrix_shape_and_consistency(self):
        g = tiny_graph()
        c = ClusterSpec.default()
        cm = CostModel()
        m = cm.op_time_matrix(g, c)
        assert m.shape == (6, 5)
        assert m[1, 0] == pytest.approx(cm.op_time(g.nodes[1], c.devices[0]))

    def test_transfer_counts_both_directions(self):
        cm = CostModel()
        c = ClusterSpec.default()
        t = cm.transfer_time(c.link_bandwidth, c, 0, 1)  # 1 second of payload
        assert t == pytest.approx(c.link_latency + 2.0)

    def test_transfer_table_bitwise_equals_scalar_formula(self):
        cm = CostModel()
        c = ClusterSpec.nvlink()
        nbytes = np.array([n.output_bytes for n in tiny_graph().nodes], dtype=np.float64)
        table = cm.transfer_time_table(nbytes, c)
        assert table.shape == (c.num_devices, c.num_devices, len(nbytes))
        for src in range(c.num_devices):
            assert not table[src, src].any()
            for dst in range(c.num_devices):
                if src != dst:
                    scalar = [cm.transfer_time(b, c, src, dst) for b in nbytes.tolist()]
                    assert table[src, dst].tolist() == scalar


class TestMemoryModel:
    def test_op_bytes(self):
        mm = MemoryModel(param_multiplier=4.0, activation_multiplier=1.0)
        node = OpNode("x", "MatMul", output_shape=(1,), param_bytes=100, activation_bytes=50)
        assert mm.op_bytes(node) == pytest.approx(450)

    def test_check_detects_oom(self):
        g = tiny_graph()
        c = ClusterSpec.default()
        # Inflate one op beyond GPU memory.
        g.nodes[1].param_bytes = 20 * 2**30
        mm = MemoryModel()
        report = mm.check(Placement([0, 0, 0, 0, 0, 0], g, c))
        assert not report.fits and 0 in report.oom_devices

    def test_fits_when_spread(self):
        g = tiny_graph()
        c = ClusterSpec.default()
        mm = MemoryModel()
        report = mm.check(Placement([0, 1, 2, 3, 0, 1], g, c))
        assert report.fits
        assert report.usage.sum() == pytest.approx(mm.op_bytes_vector(g).sum())

    def test_describe_mentions_oom(self):
        g = tiny_graph()
        c = ClusterSpec.default()
        g.nodes[1].param_bytes = 20 * 2**30
        report = MemoryModel().check(Placement([0] * 6, g, c))
        assert "OOM" in report.describe(c)

    def test_utilization_bounded_when_fitting(self):
        g = tiny_graph()
        c = ClusterSpec.default()
        report = MemoryModel().check(Placement([0] * 6, g, c))
        assert np.all(report.utilization() <= 1.0)
