"""Tests for Bahdanau attention and Transformer-XL layers."""

import numpy as np
import pytest

from repro.nn import BahdanauAttention, Embedding, Tensor, TransformerXL
from repro.nn.attention import attention_step, attention_step_backward
from repro.nn.transformer_xl import RelativeMultiHeadAttention
from tests.helpers import (
    attend,
    check_attention_gradients,
    composed_attention,
    composed_embedding,
)

rng = np.random.default_rng(13)


class TestBahdanauAttention:
    """The attention kernel on ``BahdanauAttention``'s parameters, as the
    placer's decoder runs it: a ``(T,1,M)`` memory and a ``(B,Q)`` query."""

    def test_context_shape(self):
        att = BahdanauAttention(6, 4, 5, rng=0)
        ctx, _ = attend(att, rng.standard_normal((7, 1, 6)), rng.standard_normal((3, 4)))
        assert ctx.shape == (3, 6)

    def test_context_is_convex_combination(self):
        """With identical memory vectors, context equals that vector."""
        att = BahdanauAttention(4, 4, 4, rng=1)
        v = rng.standard_normal(4)
        ctx, _ = attend(att, np.tile(v, (5, 1, 1)), rng.standard_normal((2, 4)))
        assert np.allclose(ctx, v, atol=1e-9)

    def test_peaked_attention_selects_matching_key(self):
        att = BahdanauAttention(3, 3, 8, rng=2)
        mem = rng.standard_normal((4, 1, 3))
        ctx, _ = attend(att, mem, rng.standard_normal((1, 3)))
        # Context lies within the convex hull of memory slots.
        assert ctx.min() >= mem.min() - 1e-9
        assert ctx.max() <= mem.max() + 1e-9

    def test_gradcheck(self):
        att = BahdanauAttention(3, 2, 4, rng=3)
        q = rng.standard_normal((1, 2))
        check_attention_gradients(att, rng.standard_normal((4, 1, 3)), q, ["memory"], tol=1e-4)

    def test_memory_batch_broadcasts_to_query_batch(self):
        att = BahdanauAttention(6, 4, 5, rng=4)
        ctx, _ = attend(att, rng.standard_normal((7, 1, 6)), rng.standard_normal((9, 4)))
        assert ctx.shape == (9, 6)


class TestFusedAttention:
    """The attention kernels against the composed reference: the same
    forward bits, gradients equal up to summation order, with the keys at
    the memory's batch of 1 or tiled to the query batch."""

    @pytest.mark.parametrize("keys_batch,query_batch", [(1, 6), (6, 6), (1, 1)])
    def test_matches_composed_reference(self, keys_batch, query_batch):
        att = BahdanauAttention(5, 4, 3, rng=5)
        mem0 = rng.standard_normal((7, 1, 5))
        q0 = rng.standard_normal((query_batch, 4)) * 3.0
        r = rng.standard_normal((query_batch, 5))
        ctx, grads = attend(att, mem0, q0, tiled=keys_batch > 1)
        fused = grads(r)

        memory = Tensor(mem0, requires_grad=True)
        query = Tensor(q0, requires_grad=True)
        att.zero_grad()
        ref = composed_attention(att, memory, query)
        (ref * r).sum().backward()
        assert np.array_equal(ctx, ref.data)
        ref_grads = dict(memory=memory.grad, query=query.grad)
        ref_grads.update((n, p.grad) for n, p in att.named_parameters())
        for name, b in ref_grads.items():
            a = fused[name]
            assert a.shape == b.shape, name
            assert np.allclose(a, b, rtol=1e-10, atol=1e-14), name


def _attention_inputs(steps, batch, n_queries, M=6, Q=4, A=5):
    """A shared memory ``(T,1,M)``, its keys ``(T,1,A)``, a query stack
    ``(S,B,Q)`` and the query projection and score vector."""
    return dict(
        memory=rng.standard_normal((steps, 1, M)),
        keys=rng.standard_normal((steps, 1, A)),
        query=rng.standard_normal((n_queries, batch, Q)) * 3.0,
        w_q=rng.standard_normal((Q, A)),
        b_q=rng.standard_normal(A),
        v=rng.standard_normal(A),
    )


def _close(a, b, rtol=1e-10):
    """Within ``rtol`` of ``b``'s norm, elementwise."""
    assert a.shape == b.shape
    assert np.abs(a - b).max() <= rtol * max(np.linalg.norm(b), 1e-300)


class TestStackedAttention:
    """``attention_step`` over a stack of S queries against S one-query
    calls: the same context bits for every query, gradients equal up to
    summation order. The stack runs on keys tiled to the batch, as the
    placer's decoder passes them; the one-query calls broadcast them."""

    S = 7

    @pytest.mark.parametrize("batch", [1, 3, 10])
    @pytest.mark.parametrize("steps", [1, 5, 32])
    def test_stack_matches_one_query_calls(self, steps, batch):
        x = _attention_inputs(steps, batch, self.S)
        memory, keys, w_q, v = x["memory"], x["keys"], x["w_q"], x["v"]
        tiled = np.ascontiguousarray(np.broadcast_to(keys, (steps, batch, keys.shape[2])))
        g = rng.standard_normal((self.S, batch, memory.shape[2]))

        ctx, cache = attention_step(memory, tiled, x["query"], w_q, x["b_q"], v)
        dmem, dkeys, dquery, dq, dv = attention_step_backward(g, cache, memory, tiled, w_q, v)

        singles = [
            attention_step(memory, keys, x["query"][i : i + 1], w_q, x["b_q"], v)
            for i in range(self.S)
        ]
        for i, (one, _) in enumerate(singles):
            assert np.array_equal(ctx[i], one[0])
        grads = [
            attention_step_backward(g[i : i + 1], one_cache, memory, keys, w_q, v)
            for i, (_, one_cache) in enumerate(singles)
        ]
        _close(dmem, sum(gr[0] for gr in grads))
        _close(dkeys.sum(axis=1, keepdims=True), sum(gr[1] for gr in grads))
        _close(dquery, np.concatenate([gr[2] for gr in grads]))
        _close(dq, np.concatenate([gr[3] for gr in grads]))
        _close(dv, sum(gr[4] for gr in grads))

    @pytest.mark.parametrize("name", ["memory", "keys", "query", "w_q", "b_q", "v"])
    def test_gradcheck(self, name):
        """Every input of a stacked call, against central differences."""
        x = _attention_inputs(steps=4, batch=3, n_queries=3, M=3, Q=2, A=4)
        r = rng.standard_normal((3, 3, 3))

        def loss(value):
            args = dict(x, **{name: value})
            ctx, _ = attention_step(
                args["memory"], args["keys"], args["query"], args["w_q"], args["b_q"], args["v"]
            )
            return float((ctx * r).sum())

        _, cache = attention_step(**x)
        dmem, dkeys, dquery, dq, dv = attention_step_backward(
            r, cache, x["memory"], x["keys"], x["w_q"], x["v"]
        )
        auto = {
            "memory": dmem,
            "keys": dkeys,
            "query": dquery,
            "w_q": x["query"].reshape(-1, 2).T @ dq.reshape(-1, 4),
            "b_q": dq.sum(axis=(0, 1)),
            "v": dv,
        }[name]
        base, eps = x[name], 1e-6
        num = np.zeros(base.size)
        for i in range(base.size):
            vals = []
            for sign in (1, -1):
                flat = base.copy().reshape(-1)
                flat[i] += sign * eps
                vals.append(loss(flat.reshape(base.shape)))
            num[i] = (vals[0] - vals[1]) / (2 * eps)
        assert np.abs(num.reshape(base.shape) - auto).max() < 1e-6

    def test_rejects_memory_batch(self):
        """A memory with a batch axis other than 1 raises instead of being
        read at row 0."""
        x = _attention_inputs(steps=4, batch=3, n_queries=2)
        x["memory"] = rng.standard_normal((4, 3, 6))
        with pytest.raises(ValueError, match="memory"):
            attention_step(**x)
        with pytest.raises(ValueError, match="memory"):
            attention_step(**dict(x, memory=x["memory"][:, 0]))


class TestEmbedding:
    def test_lookup(self):
        emb = Embedding(10, 4, rng=0)
        out = composed_embedding(emb, np.array([1, 1, 3]))
        assert out.shape == (3, 4)
        assert np.allclose(out.data[0], out.data[1])

    def test_out_of_range_raises(self):
        emb = Embedding(5, 2, rng=0)
        with pytest.raises(IndexError):
            composed_embedding(emb, np.array([5]))

    def test_gradient_scatters_to_rows(self):
        emb = Embedding(6, 3, rng=0)
        composed_embedding(emb, np.array([2, 2])).sum().backward()
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
