"""Tests for placement representation and constraint resolution."""

import numpy as np
import pytest

from repro.core.baselines import gpu_only_placement
from repro.sim import ClusterSpec, Placement, resolve_placement
from tests.helpers import tiny_graph


@pytest.fixture
def setup():
    return tiny_graph(), ClusterSpec.default()


class TestPlacement:
    def test_length_validation(self, setup):
        g, c = setup
        with pytest.raises(ValueError):
            Placement([0, 1], g, c)

    def test_device_range_validation(self, setup):
        g, c = setup
        with pytest.raises(ValueError):
            Placement([9] * g.num_nodes, g, c)

    def test_equality_and_hash(self, setup):
        g, c = setup
        a = Placement([0] * 6, g, c)
        b = Placement([0] * 6, g, c)
        assert a == b and hash(a) == hash(b)
        assert a != Placement([1] * 6, g, c)

    def test_num_cut_edges(self, setup):
        g, c = setup
        same = Placement([0] * 6, g, c)
        assert same.num_cut_edges() == 0
        p = Placement([0, 0, 0, 1, 0, 0], g, c)
        # Node "c"=3 has 1 in-edge and 1 out-edge crossing.
        assert p.num_cut_edges() == 2

    def test_describe(self, setup):
        g, c = setup
        text = Placement([0] * 6, g, c).describe()
        assert "gpu:0=6" in text


class TestResolvePlacement:
    def test_cpu_only_forced_to_cpu(self, setup):
        g, c = setup
        p = resolve_placement([0] * 6, g, c)
        assert p.device_of(g.index_of("in")) == c.cpu_index
        assert p.device_of(g.index_of("a")) == 0

    def test_colocation_follows_first_member(self):
        from repro.graph import CompGraph, OpNode

        g = CompGraph()
        g.add_node(OpNode("v", "Variable", colocation_group="w"))
        g.add_node(OpNode("m", "MatMul", colocation_group="w"), inputs=["v"])
        g.add_node(OpNode("cpu_op", "Input", cpu_only=True))
        c = ClusterSpec.default()
        p = resolve_placement([2, 3, 0], g, c)
        assert p.device_of(0) == p.device_of(1) == 2

    def test_actions_length_check(self, setup):
        g, c = setup
        with pytest.raises(ValueError):
            resolve_placement([0], g, c)

    def test_single_device_placement(self, setup):
        """The GPU-Only baseline puts every op but the CPU-only ones on
        GPU 0."""
        g, c = setup
        p = gpu_only_placement(g, c)
        non_cpu_ops = [i for i, n in enumerate(g.nodes) if not n.cpu_only]
        assert all(p.device_of(i) == 0 for i in non_cpu_ops)

    def test_does_not_mutate_input(self, setup):
        g, c = setup
        actions = np.ones(6, dtype=np.int64)
        resolve_placement(actions, g, c)
        assert np.all(actions == 1)
