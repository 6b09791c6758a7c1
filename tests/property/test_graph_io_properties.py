"""Property-based round-trip tests for graph serialization."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import CompGraph, OpNode, graph_from_dict, graph_to_dict
from repro.graph.features import CANONICAL_OP_TYPES


@st.composite
def random_graph(draw):
    n = draw(st.integers(1, 12))
    g = CompGraph(draw(st.sampled_from(["g1", "net", "workload"])))
    for i in range(n):
        g.add_node(
            OpNode(
                f"op{i}",
                draw(st.sampled_from(CANONICAL_OP_TYPES)),
                output_shape=tuple(
                    draw(st.lists(st.integers(1, 32), min_size=0, max_size=4))
                ),
                flops=draw(st.floats(0, 1e9)),
                param_bytes=draw(st.floats(0, 1e6)),
                activation_bytes=draw(st.floats(0, 1e6)),
                cpu_only=draw(st.booleans()),
                colocation_group=draw(st.sampled_from([None, "a", "b"])),
            )
        )
    for v in range(1, n):
        for u in range(v):
            if draw(st.integers(0, 3)) == 0:
                g.add_edge(f"op{u}", f"op{v}")
    return g


@given(random_graph())
@settings(max_examples=40, deadline=None)
def test_roundtrip_structure(g):
    loaded = graph_from_dict(graph_to_dict(g))
    assert loaded.name == g.name
    assert loaded.num_nodes == g.num_nodes
    assert sorted(loaded.edges()) == sorted(g.edges())


@given(random_graph())
@settings(max_examples=40, deadline=None)
def test_roundtrip_attributes(g):
    loaded = graph_from_dict(graph_to_dict(g))
    for a, b in zip(g.nodes, loaded.nodes):
        assert (a.name, a.op_type, a.output_shape) == (b.name, b.op_type, b.output_shape)
        assert a.flops == b.flops
        assert a.param_bytes == b.param_bytes
        assert a.cpu_only == b.cpu_only
        assert a.colocation_group == b.colocation_group


@given(random_graph())
@settings(max_examples=40, deadline=None)
def test_roundtrip_preserves_features_and_adjacency(g):
    from repro.graph import FeatureExtractor, normalized_adjacency

    loaded = graph_from_dict(graph_to_dict(g))
    fx = FeatureExtractor()
    assert np.allclose(fx(g), fx(loaded))
    assert (normalized_adjacency(g) != normalized_adjacency(loaded)).nnz == 0


@given(random_graph())
@settings(max_examples=40, deadline=None)
def test_roundtrip_is_idempotent(g):
    once = graph_to_dict(graph_from_dict(graph_to_dict(g)))
    assert once == graph_to_dict(g)


@given(random_graph(), st.booleans(), st.booleans())
@settings(max_examples=40, deadline=None)
def test_features_match_reference_loop(g, costs, degrees):
    from repro.graph import FeatureExtractor
    from tests.helpers import reference_features

    fx = FeatureExtractor(include_costs=costs, include_degrees=degrees)
    assert fx(g).tobytes() == reference_features(fx, g).tobytes()
