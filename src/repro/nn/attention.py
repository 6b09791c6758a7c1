"""Context-based input attention (Bahdanau et al., 2015).

This is the attention mechanism named in Section 4.2 of the paper: the
decoder state queries the encoder memory, producing a context vector that is
concatenated with the decoder input.

The memory projection (the attention keys) depends only on the memory, so a
decoder projects it once with :meth:`BahdanauAttention.project_memory` and
passes the keys to every step. A step — query projection, tanh score,
softmax over time and context sum — is written once on raw arrays, in
:func:`attention_step` and :func:`attention_step_backward`;
:meth:`BahdanauAttention.forward` is one op over them, and a decoder that
fuses its whole loop calls them directly.

A memory ``(T,1,M)`` shared by the whole query batch (the placer's case)
takes a cheaper path both ways: the context is one ``einsum`` over time,
bit-identical to the broadcast multiply-and-sum a per-batch memory uses,
and the backward contracts the batch axis with matmuls. Neither builds a
``(T,B,M)`` temporary.
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
    """One additive-attention query on raw arrays: ``(context (B,M), cache)``.

    ``memory (T,B,M)``/``keys (T,B,A)`` and ``query (B,Q)`` broadcast over
    the batch axis. ``cache`` is what :func:`attention_step_backward`
    needs.
    """
    q = query @ w_q + b_q  # (B, A)
    s = keys + q  # (T, B, A)
    np.tanh(s, out=s)
    scores = s @ v  # (T, B)
    # Softmax over time, shifted by its (constant) max.
    e = np.exp(scores - scores.max(axis=0, keepdims=True))
    weights = e / e.sum(axis=0, keepdims=True)
    if memory.shape[1] == 1:
        # It adds the products in time order, as the mul-sum below does.
        context = np.einsum("tb,tm->bm", weights, memory[:, 0])
    else:
        T, B = weights.shape
        context = (memory * weights.reshape(T, B, 1)).sum(axis=0)
    return context, (query, s, weights)


def attention_step_backward(
    g: np.ndarray,
    cache: tuple,
    memory: np.ndarray,
    keys_shape: Tuple[int, ...],
    w_q: np.ndarray,
    v: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Backward of :func:`attention_step` given the context gradient ``g``.

    Returns ``(dmemory, dkeys, dquery, dq, dv)``, each at its input's own
    shape; ``dq`` is the gradient of the query projection ``query @ w_q +
    b_q`` ``(B,A)``, from which the caller accumulates ``w_q``'s and
    ``b_q``'s gradients (a decoder contracts all its steps at once).
    """
    query, s, weights = cache
    T, B = weights.shape
    # A memory shared by the whole query batch (the placer's case)
    # contracts the batch axis with matmuls, not (T,B,M) temporaries.
    if memory.shape[1] == 1:
        dmemory = (weights @ g)[:, None, :]
        dw = memory[:, 0, :] @ g.T
    else:
        dmemory = _unbroadcast(g * weights.reshape(T, B, 1), memory.shape)
        dw = (memory * g).sum(axis=2)
    dscores = weights * (dw - (dw * weights).sum(axis=0, keepdims=True))
    dv = dscores.reshape(-1) @ s.reshape(T * B, -1)
    dpre = np.multiply.outer(dscores, v) * (1.0 - s**2)
    dq = _unbroadcast(dpre, (query.shape[0], dpre.shape[2]))
    return dmemory, _unbroadcast(dpre, keys_shape), dq @ w_q.T, dq, dv


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
            memory.data, keys.data, query.data, w_q.data, b_q.data, v.data
        )

        def backward(g: np.ndarray) -> None:
            dmemory, dkeys, dquery, dq, dv = attention_step_backward(
                g, cache, memory.data, keys.shape, w_q.data, v.data
            )
            if memory.requires_grad:
                memory._accumulate(dmemory)
            if v.requires_grad:
                v._accumulate(dv)
            if keys.requires_grad:
                keys._accumulate(dkeys)
            if b_q.requires_grad:
                b_q._accumulate(dq.sum(axis=0))
            if w_q.requires_grad:
                w_q._accumulate(query.data.T @ dq)
            if query.requires_grad:
                query._accumulate(dquery)

        return Tensor._make(context, (keys, memory, query, w_q, b_q, v), backward)
