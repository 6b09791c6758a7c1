"""Tests for device and cluster specifications."""

import pytest

from repro.sim import ClusterSpec, CostModel, DeviceSpec
from repro.sim.device import GB


class TestDeviceSpec:
    def test_p100_factory(self):
        gpu = DeviceSpec.p100(0)
        assert gpu.name == "gpu:0"
        assert gpu.is_gpu
        assert gpu.memory == pytest.approx(12 * GB)

    def test_xeon_factory(self):
        cpu = DeviceSpec.xeon()
        assert cpu.kind == "cpu" and not cpu.is_gpu

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            DeviceSpec("x", "tpu", 1e12, 1e11, 1e9, 1e-5)

    def test_nonpositive_capability(self):
        with pytest.raises(ValueError):
            DeviceSpec("x", "gpu", 0, 1e11, 1e9, 1e-5)

    def test_efficiency_lookup_with_default(self):
        gpu = DeviceSpec.p100(0)
        assert gpu.efficiency_for("Conv2D") > gpu.efficiency_for("NeverSeenOp")

    def test_frozen(self):
        gpu = DeviceSpec.p100(0)
        with pytest.raises(Exception):
            gpu.memory = 0


class TestClusterSpec:
    def test_default_cluster_shape(self):
        c = ClusterSpec.default()
        assert c.num_devices == 5
        assert c.gpu_indices == [0, 1, 2, 3]
        assert c.devices[c.cpu_index].kind == "cpu"

    def test_needs_cpu(self):
        with pytest.raises(ValueError, match="CPU"):
            ClusterSpec(devices=(DeviceSpec.p100(0),))

    def test_needs_devices(self):
        with pytest.raises(ValueError):
            ClusterSpec(devices=())

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ClusterSpec(devices=(DeviceSpec.p100(0), DeviceSpec.p100(0), DeviceSpec.xeon()))

    def test_transfer_time_monotone_in_bytes(self):
        c = ClusterSpec.default()
        cm = CostModel()
        assert cm.transfer_time(2**20, c, 0, 1) < cm.transfer_time(2**24, c, 0, 1)
        assert cm.transfer_time(0, c, 0, 1) == pytest.approx(c.link_latency)

    def test_custom_gpu_count(self):
        c = ClusterSpec.default(num_gpus=2)
        assert len(c.gpu_indices) == 2
