"""Tests for the workload graph generators."""

import numpy as np
import pytest

from repro.workloads import (
    WORKLOADS,
    build_bert,
    build_gnmt,
    build_inception_v3,
    build_resnet50,
    build_seq2seq,
    build_transformer,
    build_vgg16,
    get_workload,
    list_workloads,
)

ALL_BUILDERS = [
    build_inception_v3,
    build_gnmt,
    build_bert,
    build_vgg16,
    build_resnet50,
    build_seq2seq,
    build_transformer,
]


@pytest.mark.parametrize("builder", ALL_BUILDERS)
class TestStructuralInvariants:
    def test_valid_dag_topologically_indexed(self, builder):
        g = builder(scale=0.3)
        g.validate()
        assert g.is_topologically_indexed()

    def test_connected_to_sink(self, builder):
        """Every op should reach the final train op (no dead subgraphs)."""
        import networkx as nx

        g = builder(scale=0.3)
        nxg = nx.DiGraph(g.edges())
        sink = g.num_nodes - 1
        reaches = nx.ancestors(nxg, sink) | {sink}
        assert len(reaches) == g.num_nodes

    def test_positive_costs(self, builder):
        g = builder(scale=0.3)
        assert g.total_flops() > 0
        assert g.total_param_bytes() > 0

    def test_scale_shrinks_op_count(self, builder):
        small = builder(scale=0.25)
        full = builder(scale=1.0)
        assert small.num_nodes < full.num_nodes

    def test_scale_validation(self, builder):
        with pytest.raises(ValueError):
            builder(scale=0.0)
        with pytest.raises(ValueError):
            builder(scale=1.5)

    def test_has_cpu_only_input_ops(self, builder):
        g = builder(scale=0.3)
        assert any(n.cpu_only for n in g.nodes)


class TestInception:
    def test_full_size(self):
        g = build_inception_v3()
        assert 250 <= g.num_nodes <= 400
        # ~24M parameters -> ~95 MB; generous band for the approximation.
        assert 60e6 <= g.total_param_bytes() <= 200e6

    def test_flops_magnitude(self):
        # ~5.7 GFLOPs/image, x2 for MAC counting tolerance.
        g = build_inception_v3(batch_size=1)
        assert 5e9 <= g.total_flops() <= 30e9

    def test_batch_scales_flops(self):
        assert build_inception_v3(batch_size=8).total_flops() > 4 * build_inception_v3().total_flops()


class TestGNMT:
    def test_memory_exceeds_single_gpu(self):
        """The paper's premise: batch-256 GNMT-4 needs >12 GB to train."""
        from repro.sim import MemoryModel

        g = build_gnmt()
        mm = MemoryModel()
        total = mm.op_bytes_vector(g).sum()
        assert total > 12 * 2**30

    def test_unroll_length(self):
        g = build_gnmt(seq_len=40, scale=0.5)
        cells = [n for n in g.nodes if n.op_type == "LSTMCell"]
        assert len(cells) == 8 * 20  # 4 enc + 4 dec layers, 20 steps

    def test_colocation_of_softmax(self):
        g = build_gnmt(scale=0.2)
        members = [n for n in g.nodes if n.colocation_group == "softmax_w"]
        assert len(members) > 2


class TestBert:
    def test_memory_exceeds_single_gpu(self):
        from repro.sim import MemoryModel

        g = build_bert()
        total = MemoryModel().op_bytes_vector(g).sum()
        assert total > 12 * 2**30

    def test_layer_count_scaling(self):
        g = build_bert(scale=0.5)
        attn_ops = [n for n in g.nodes if n.name.endswith("attention/softmax")]
        assert len(attn_ops) == 6

    def test_min_two_layers(self):
        g = build_bert(scale=0.01)
        attn_ops = [n for n in g.nodes if n.name.endswith("attention/softmax")]
        assert len(attn_ops) == 2

    def test_embedding_tied_to_logits(self):
        g = build_bert(scale=0.2)
        emb = g.node("embeddings/lookup")
        logits = g.node("mlm/logits")
        assert emb.colocation_group == logits.colocation_group == "bert_embed"


class TestRegistry:
    def test_list_workloads(self):
        assert set(list_workloads()) == set(WORKLOADS)
        assert "inception_v3" in list_workloads()

    def test_get_workload_with_kwargs(self):
        g = get_workload("vgg16", scale=0.3, batch_size=8)
        assert "b8" in g.name

    def test_unknown_workload(self):
        with pytest.raises(KeyError, match="unknown workload"):
            get_workload("resnet9000")
