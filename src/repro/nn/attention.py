"""Context-based input attention (Bahdanau et al., 2015).

This is the attention mechanism named in Section 4.2 of the paper: the
decoder state queries the encoder memory, producing a context vector that is
concatenated with the decoder input.

The memory projection (the attention keys) depends only on the memory, so a
decoder projects it once with :meth:`BahdanauAttention.project_memory` and
passes the keys to every query. The math — query projection, tanh score,
softmax over time and context sum — is written once on raw arrays, in
:func:`attention_step` and :func:`attention_step_backward`, for a stack
of ``S`` queries on one memory: each stacked product makes the same BLAS
call per query as a lone query does, so a query's context has the same
bits at any ``S``. :meth:`BahdanauAttention.forward` is one op over a
stack of one, a sampling decoder calls them once per step, and a
teacher-forced decoder, whose queries are all known before any context
is needed, calls them once per block of steps.

A memory ``(T,1,M)`` shared by the whole query batch (the placer's case)
takes a cheaper path both ways: the context is one ``einsum`` over time,
bit-identical to the broadcast multiply-and-sum a per-batch memory uses,
and the backward contracts the batch axis with matmuls. Neither builds a
``(S,T,B,M)`` temporary.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn.linear import Linear
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor, _unbroadcast
from repro.utils.rng import new_rng


def attention_step(
    memory: np.ndarray,
    keys: np.ndarray,
    query: np.ndarray,
    w_q: np.ndarray,
    b_q: np.ndarray,
    v: np.ndarray,
) -> Tuple[np.ndarray, tuple]:
    """``S`` additive-attention queries on raw arrays: ``(context (S,B,M), cache)``.

    ``memory (T,B,M)``/``keys (T,B,A)`` and ``query (S,B,Q)`` broadcast
    over the batch axis; keys already at the query batch size make the
    score's add cheapest. ``cache`` is what
    :func:`attention_step_backward` needs.
    """
    q = query @ w_q + b_q  # (S, B, A)
    s = np.add(keys, q[:, None])  # (S, T, B, A)
    np.tanh(s, out=s)
    weights = s @ v  # (S, T, B) scores, made the weights in place
    # Softmax over time, shifted by its (constant) max.
    weights -= weights.max(axis=1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=1, keepdims=True)
    S, T, B = weights.shape
    if memory.shape[1] == 1:
        # It adds the products in time order, as the mul-sum below does.
        # Every query's weights side by side, ``(T, S·B)``, make it a lone
        # query's einsum at batch S·B: the same per-element sums, and much
        # cheaper than an "stb" subscript.
        flat_w = weights.transpose(1, 0, 2).reshape(T, S * B)
        context = np.einsum("tb,tm->bm", flat_w, memory[:, 0]).reshape(S, B, -1)
    else:
        context = (memory * weights[..., None]).sum(axis=1)
    return context, (q, weights)


def attention_step_backward(
    g: np.ndarray,
    cache: tuple,
    memory: np.ndarray,
    keys: np.ndarray,
    w_q: np.ndarray,
    v: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Backward of :func:`attention_step` given the context gradient ``g (S,B,M)``.

    Returns ``(dmemory, dkeys, dquery, dq, dv)``: ``dmemory``, ``dkeys``
    and ``dv`` summed over the ``S`` queries at their inputs' own shapes,
    ``dquery`` per query. ``dq`` is the gradient of the query projection
    ``query @ w_q + b_q`` ``(S,B,A)``, from which the caller accumulates
    ``w_q``'s and ``b_q``'s gradients (a decoder contracts all its steps
    at once).
    """
    q, weights = cache
    S, T, B = weights.shape
    if memory.shape[1] == 1:
        # A memory shared by the whole query batch (the placer's case)
        # contracts the query and batch axes with matmuls.
        flat_w = weights.transpose(1, 0, 2).reshape(T, S * B)
        dmemory = (flat_w @ g.reshape(S * B, -1))[:, None, :]
        dw = memory[:, 0, :] @ g.transpose(0, 2, 1)  # (S, T, B)
    else:
        dmemory = _unbroadcast(g[:, None] * weights[..., None], memory.shape)
        dw = (memory * g[:, None]).sum(axis=3)
    dw -= (dw * weights).sum(axis=1, keepdims=True)
    dw *= weights  # the scores' gradient
    # The tanh scores are recomputed, not cached: they are the largest
    # array the forward makes, and a tape holding every call's would page
    # in fresh memory on every pass. One buffer becomes (s² - 1)·dscores
    # in place; ``-v``, the rest of the pre-tanh gradient, is constant
    # over the sums, so it scales their results.
    dpre = np.add(keys, q[:, None])
    np.tanh(dpre, out=dpre)
    dv = dw.reshape(-1) @ dpre.reshape(S * T * B, -1)
    np.multiply(dpre, dpre, out=dpre)
    dpre -= 1.0
    dpre *= dw[..., None]
    neg_v = -v
    dq = _unbroadcast(dpre.sum(axis=1), q.shape) * neg_v
    dkeys = _unbroadcast(dpre, keys.shape) * neg_v
    return dmemory, dkeys, dq @ w_q.T, dq, dv


class BahdanauAttention(Module):
    """Additive attention: ``score = vᵀ tanh(W_m mem + W_q query)``."""

    def __init__(self, memory_size: int, query_size: int, attn_size: int, rng=None):
        super().__init__()
        rng = new_rng(rng)
        self.w_memory = Linear(memory_size, attn_size, bias=False, rng=rng)
        self.w_query = Linear(query_size, attn_size, bias=True, rng=rng)
        self.v = Parameter(rng.uniform(-0.1, 0.1, size=attn_size))

    def project_memory(self, memory: Tensor) -> Tensor:
        """The keys ``W_m mem`` ``(T,B,A)``, shared by every query on ``memory``."""
        return self.w_memory(memory)

    def forward(self, memory: Tensor, query: Tensor, keys: Optional[Tensor] = None) -> Tensor:
        """Attend over ``memory (T,B,M)`` with ``query (B,Q)`` -> ``(B,M)``.

        ``keys`` is ``project_memory(memory)``, computed here when not given.
        ``memory``/``keys`` and ``query`` broadcast over the batch axis.
        """
        if keys is None:
            keys = self.project_memory(memory)
        w_q, b_q, v = self.w_query.weight, self.w_query.bias, self.v
        context, cache = attention_step(
            memory.data, keys.data, query.data[None], w_q.data, b_q.data, v.data
        )

        def backward(g: np.ndarray) -> None:
            dmemory, dkeys, dquery, dq, dv = attention_step_backward(
                g[None], cache, memory.data, keys.data, w_q.data, v.data
            )
            if memory.requires_grad:
                memory._accumulate(dmemory)
            if v.requires_grad:
                v._accumulate(dv)
            if keys.requires_grad:
                keys._accumulate(dkeys)
            if b_q.requires_grad:
                b_q._accumulate(dq.sum(axis=(0, 1)))
            if w_q.requires_grad:
                w_q._accumulate(query.data.T @ dq[0])
            if query.requires_grad:
                query._accumulate(dquery[0])

        return Tensor._make(context[0], (keys, memory, query, w_q, b_q, v), backward)
