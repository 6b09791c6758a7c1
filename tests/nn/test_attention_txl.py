"""Tests for Bahdanau attention and Transformer-XL layers."""

import numpy as np
import pytest

from repro.nn import BahdanauAttention, Embedding, Tensor, TransformerXL
from repro.nn.transformer_xl import RelativeMultiHeadAttention
from tests.helpers import check_gradient

rng = np.random.default_rng(13)


class TestBahdanauAttention:
    def test_context_shape(self):
        att = BahdanauAttention(6, 4, 5, rng=0)
        ctx = att(Tensor(rng.standard_normal((7, 3, 6))), Tensor(rng.standard_normal((3, 4))))
        assert ctx.shape == (3, 6)

    def test_context_is_convex_combination(self):
        """With identical memory vectors, context equals that vector."""
        att = BahdanauAttention(4, 4, 4, rng=1)
        v = rng.standard_normal(4)
        mem = Tensor(np.tile(v, (5, 2, 1)))
        ctx = att(mem, Tensor(rng.standard_normal((2, 4))))
        assert np.allclose(ctx.data, v, atol=1e-9)

    def test_peaked_attention_selects_matching_key(self):
        att = BahdanauAttention(3, 3, 8, rng=2)
        mem = Tensor(rng.standard_normal((4, 1, 3)))
        q = Tensor(rng.standard_normal((1, 3)))
        ctx = att(mem, q)
        # Context lies within the convex hull of memory slots.
        assert ctx.data.min() >= mem.data.min() - 1e-9
        assert ctx.data.max() <= mem.data.max() + 1e-9

    def test_gradcheck(self):
        att = BahdanauAttention(3, 2, 4, rng=3)
        q = Tensor(rng.standard_normal((1, 2)))
        check_gradient(lambda m: (att(m, q) ** 2).sum(), rng.standard_normal((4, 1, 3)), tol=1e-4)

    def test_memory_batch_broadcasts_to_query_batch(self):
        att = BahdanauAttention(6, 4, 5, rng=4)
        ctx = att(Tensor(rng.standard_normal((7, 1, 6))), Tensor(rng.standard_normal((9, 4))))
        assert ctx.shape == (9, 6)


def composed_attention(att, memory, query):
    """``BahdanauAttention.forward`` written as a composition of tensor ops."""
    from repro.nn.functional import softmax

    keys = att.w_memory(memory)
    scores = (keys + att.w_query(query)).tanh() @ att.v
    weights = softmax(scores, axis=0)
    return (memory * weights.reshape(weights.shape[0], weights.shape[1], 1)).sum(axis=0)


class TestFusedAttention:
    """The fused step against the composed reference: the same forward
    bits, gradients equal up to summation order."""

    @pytest.mark.parametrize("mem_batch,query_batch", [(1, 6), (6, 6), (6, 1), (1, 1)])
    def test_matches_composed_reference(self, mem_batch, query_batch):
        att = BahdanauAttention(5, 4, 3, rng=5)
        mem0 = rng.standard_normal((7, mem_batch, 5))
        q0 = rng.standard_normal((query_batch, 4)) * 3.0
        r = rng.standard_normal((max(mem_batch, query_batch), 5))
        results = []
        for attend in (lambda m, q: att(m, q), lambda m, q: composed_attention(att, m, q)):
            memory = Tensor(mem0, requires_grad=True)
            query = Tensor(q0, requires_grad=True)
            att.zero_grad()
            ctx = attend(memory, query)
            (ctx * r).sum().backward()
            grads = [memory.grad, query.grad] + [p.grad for p in att.parameters()]
            results.append((ctx.data, grads))
        (ctx_a, grads_a), (ctx_b, grads_b) = results
        assert np.array_equal(ctx_a, ctx_b)
        for a, b in zip(grads_a, grads_b):
            assert a.shape == b.shape
            assert np.allclose(a, b, rtol=1e-10, atol=1e-14)


class TestEmbedding:
    def test_lookup(self):
        emb = Embedding(10, 4, rng=0)
        out = emb(np.array([1, 1, 3]))
        assert out.shape == (3, 4)
        assert np.allclose(out.data[0], out.data[1])

    def test_out_of_range_raises(self):
        emb = Embedding(5, 2, rng=0)
        with pytest.raises(IndexError):
            emb(np.array([5]))

    def test_gradient_scatters_to_rows(self):
        emb = Embedding(6, 3, rng=0)
        emb(np.array([2, 2])).sum().backward()
        assert np.allclose(emb.weight.grad[2], 2.0)
        assert np.allclose(emb.weight.grad[0], 0.0)


class TestTransformerXL:
    def test_shapes_and_memory_growth(self):
        txl = TransformerXL(dim=8, n_layers=2, n_heads=2, mem_len=6, rng=0)
        txl.reset_memory()
        out1 = txl(Tensor(rng.standard_normal((4, 1, 8))))
        assert out1.shape == (4, 1, 8)
        assert txl._memory[0].shape[0] == 4
        txl(Tensor(rng.standard_normal((4, 1, 8))))
        assert txl._memory[0].shape[0] == 6  # clipped to mem_len

    def test_memory_affects_output(self):
        txl = TransformerXL(dim=8, n_layers=1, n_heads=2, mem_len=8, rng=1)
        seg = Tensor(rng.standard_normal((3, 1, 8)))
        txl.reset_memory()
        first = txl(seg).data.copy()
        second = txl(seg).data  # same input, but now memory is non-empty
        assert not np.allclose(first, second)

    def test_reset_memory_restores_determinism(self):
        txl = TransformerXL(dim=8, n_layers=2, n_heads=2, rng=2)
        seg = Tensor(rng.standard_normal((3, 2, 8)))
        txl.reset_memory()
        a = txl(seg).data.copy()
        txl.reset_memory()
        b = txl(seg).data
        assert np.allclose(a, b)

    def test_causality_within_segment(self):
        """Changing a later position must not affect earlier outputs."""
        txl = TransformerXL(dim=8, n_layers=1, n_heads=2, rng=3)
        x = rng.standard_normal((5, 1, 8))
        txl.reset_memory()
        out1 = txl(Tensor(x)).data.copy()
        x2 = x.copy()
        x2[4] += 5.0
        txl.reset_memory()
        out2 = txl(Tensor(x2)).data
        assert np.allclose(out1[:4], out2[:4], atol=1e-10)
        assert not np.allclose(out1[4], out2[4])

    def test_dim_heads_divisibility(self):
        with pytest.raises(ValueError):
            RelativeMultiHeadAttention(10, 3)

    def test_gradients_flow(self):
        txl = TransformerXL(dim=8, n_layers=2, n_heads=2, rng=4)
        txl.reset_memory()
        x = Tensor(rng.standard_normal((4, 2, 8)), requires_grad=True)
        txl(x).sum().backward()
        assert x.grad is not None
        assert all(p.grad is not None for p in txl.parameters())
