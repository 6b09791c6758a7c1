"""Tests for the computational-graph IR."""

import numpy as np
import pytest

from repro.graph import CompGraph, OpNode
from tests.helpers import tiny_graph


class TestOpNode:
    def test_requires_name(self):
        with pytest.raises(ValueError):
            OpNode("", "MatMul")

    def test_rejects_negative_costs(self):
        with pytest.raises(ValueError):
            OpNode("x", "MatMul", flops=-1)

    def test_output_bytes(self):
        node = OpNode("x", "MatMul", output_shape=(2, 8))
        assert node.output_elements == 16
        assert node.output_bytes == 64.0

    def test_shape_coerced_to_ints(self):
        node = OpNode("x", "MatMul", output_shape=(np.int64(4), 2.0))
        assert node.output_shape == (4, 2)
        assert all(isinstance(s, int) for s in node.output_shape)


class TestCompGraph:
    def test_add_node_and_lookup(self):
        g = tiny_graph()
        assert g.num_nodes == 6
        assert g.node("a").op_type == "MatMul"
        assert g.index_of("loss") == 5

    def test_duplicate_name_rejected(self):
        g = CompGraph()
        g.add_node(OpNode("x", "Input"))
        with pytest.raises(ValueError):
            g.add_node(OpNode("x", "Input"))

    def test_edge_to_unknown_node(self):
        g = CompGraph()
        g.add_node(OpNode("x", "Input"))
        with pytest.raises(KeyError):
            g.add_edge("x", "nope")

    def test_self_loop_rejected(self):
        g = CompGraph()
        g.add_node(OpNode("x", "Input"))
        with pytest.raises(ValueError):
            g.add_edge("x", "x")

    def test_duplicate_edge_deduplicated(self):
        g = CompGraph()
        g.add_node(OpNode("a", "Input"))
        g.add_node(OpNode("b", "ReLU"), inputs=["a"])
        g.add_edge("a", "b")
        assert g.num_edges == 1

    def test_successors_predecessors(self):
        g = tiny_graph()
        a = g.index_of("a")
        assert sorted(g.successors(a)) == [g.index_of("b"), g.index_of("c")]
        assert g.predecessors(g.index_of("d")) == [g.index_of("b"), g.index_of("c")]

    def test_degrees(self):
        g = tiny_graph()
        assert g.in_degrees()[g.index_of("d")] == 2

    def test_topological_order_valid(self):
        g = tiny_graph()
        order = g.topological_order()
        position = {op: i for i, op in enumerate(order)}
        for u, v in g.edges():
            assert position[u] < position[v]

    def test_cycle_detection(self):
        g = CompGraph()
        g.add_node(OpNode("a", "Input"))
        g.add_node(OpNode("b", "ReLU"), inputs=["a"])
        # Force a back edge via the internal structures.
        g._succ[1].append(0)
        g._pred[0].append(1)
        with pytest.raises(ValueError, match="cycle"):
            g.topological_order()

    def test_is_topologically_indexed(self):
        assert tiny_graph().is_topologically_indexed()

    def test_validate_rejects_bad_shape(self):
        g = CompGraph()
        node = OpNode("a", "Input", output_shape=(2,))
        g.add_node(node)
        node.output_shape = (0,)
        with pytest.raises(ValueError):
            g.validate()

    def test_totals(self):
        g = tiny_graph()
        assert g.total_flops() == pytest.approx(2e6 + 64 + 128)
        assert g.total_param_bytes() == pytest.approx(1536)

    def test_summary_contains_counts(self):
        text = tiny_graph().summary()
        assert "6 ops" in text and "edges" in text
