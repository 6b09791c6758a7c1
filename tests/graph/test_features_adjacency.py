"""Tests for node features, op-type vocabulary, and GCN adjacency."""

import numpy as np
import pytest

from repro.graph import (
    FeatureExtractor,
    OpTypeVocabulary,
    adjacency_matrix,
    normalized_adjacency,
)
from repro.graph.features import CANONICAL_OP_TYPES, SHAPE_RANK
from repro.workloads import WORKLOADS, get_workload
from tests.helpers import reference_features, tiny_graph


class TestVocabulary:
    def test_canonical_types_indexed(self):
        vocab = OpTypeVocabulary()
        assert vocab.index("Conv2D") != vocab.index("MatMul")
        assert len(vocab) == len(CANONICAL_OP_TYPES) + 1

    def test_unknown_maps_to_unk(self):
        vocab = OpTypeVocabulary()
        assert vocab.index("SomethingNew") == vocab.unk_index

    def test_one_hot(self):
        vocab = OpTypeVocabulary(["A", "B"])
        vec = vocab.one_hot("B")
        assert vec.sum() == 1.0 and vec[1] == 1.0

    def test_from_graphs(self):
        vocab = OpTypeVocabulary.from_graphs([tiny_graph()])
        assert vocab.index("MatMul") != vocab.unk_index

    def test_duplicate_types_deduped(self):
        vocab = OpTypeVocabulary(["A", "A", "B"])
        assert len(vocab) == 3  # A, B, <UNK>


class TestFeatureExtractor:
    def test_shape_and_range(self):
        fx = FeatureExtractor()
        x = fx(tiny_graph())
        assert x.shape == (6, fx.dim)
        assert np.isfinite(x).all()
        # Shape features are normalized by the max dimension -> within [0,1].
        type_w = len(fx.vocab)
        shapes = x[:, type_w : type_w + 2 * SHAPE_RANK]
        assert shapes.min() >= 0.0 and shapes.max() <= 1.0

    def test_one_hot_block_rows_sum_to_one(self):
        fx = FeatureExtractor()
        x = fx(tiny_graph())
        assert np.allclose(x[:, : len(fx.vocab)].sum(axis=1), 1.0)

    def test_dim_consistent_across_workloads(self):
        """The generalization experiments need one shared feature space."""
        from repro.workloads import build_inception_v3, build_gnmt

        fx = FeatureExtractor()
        a = fx(build_inception_v3(scale=0.34))
        b = fx(build_gnmt(scale=0.15))
        assert a.shape[1] == b.shape[1] == fx.dim

    def test_optional_blocks_change_dim(self):
        lean = FeatureExtractor(include_costs=False, include_degrees=False)
        full = FeatureExtractor()
        assert full.dim == lean.dim + 5

    def test_empty_graph(self):
        from repro.graph import CompGraph

        fx = FeatureExtractor()
        assert fx(CompGraph()).shape == (0, fx.dim)

    def test_input_shape_feature_uses_first_predecessor(self):
        fx = FeatureExtractor()
        g = tiny_graph()
        x = fx(g)
        type_w = len(fx.vocab)
        in_shape_block = x[g.index_of("b"), type_w + SHAPE_RANK : type_w + 2 * SHAPE_RANK]
        # b's predecessor is a with output (4,16); max dim in graph is 32.
        assert np.allclose(in_shape_block[:2], [4 / 32, 16 / 32])


class TestFeaturesMatchReferenceLoop:
    """The array version of ``features`` reproduces the per-node loop
    (``tests/helpers.py::reference_features``) bit for bit."""

    EXTRACTORS = [
        FeatureExtractor(),
        FeatureExtractor(include_costs=False, include_degrees=False),
        FeatureExtractor(vocab=OpTypeVocabulary(["MatMul", "Input"])),
    ]

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_every_builtin_workload(self, name):
        graph = get_workload(name)
        for fx in self.EXTRACTORS:
            assert fx(graph).tobytes() == reference_features(fx, graph).tobytes()

    def test_ranks_above_and_below_shape_rank(self):
        from repro.graph import CompGraph, OpNode

        g = CompGraph("ranks")
        g.add_node(OpNode("in", "Input", (2, 3, 5, 7, 11, 13)))
        g.add_node(OpNode("scalar", "Reduce", (), flops=3), inputs=["in"])
        g.add_node(OpNode("zero", "Mystery", (0, 9)), inputs=["scalar", "in"])
        g.add_node(OpNode("lonely", "Add", (64,), param_bytes=10))
        for fx in self.EXTRACTORS:
            assert fx(g).tobytes() == reference_features(fx, g).tobytes()


class TestAdjacency:
    def test_adjacency_symmetric_when_undirected(self):
        a = adjacency_matrix(tiny_graph())
        assert (a != a.T).nnz == 0

    def test_adjacency_directed(self):
        a = adjacency_matrix(tiny_graph(), undirected=False)
        assert a[0, 1] == 1.0 and a[1, 0] == 0.0

    def test_normalized_rows_bounded(self):
        a = normalized_adjacency(tiny_graph())
        assert a.shape == (6, 6)
        # Symmetric normalization keeps the spectral radius at <= 1.
        eigs = np.linalg.eigvalsh(a.toarray())
        assert eigs.max() <= 1.0 + 1e-9

    def test_self_loops_present(self):
        a = normalized_adjacency(tiny_graph())
        assert np.all(a.diagonal() > 0)

    def test_normalization_formula_on_known_graph(self):
        from repro.graph import CompGraph, OpNode

        g = CompGraph()
        g.add_node(OpNode("a", "Input"))
        g.add_node(OpNode("b", "ReLU"), inputs=["a"])
        a = normalized_adjacency(g).toarray()
        # Both nodes have degree 2 after self-loops: entries 1/2.
        assert np.allclose(a, [[0.5, 0.5], [0.5, 0.5]])
