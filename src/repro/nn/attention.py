"""Context-based input attention (Bahdanau et al., 2015).

This is the attention mechanism named in Section 4.2 of the paper: the
decoder state queries the encoder memory, producing a context vector that is
concatenated with the decoder input.

The memory projection (the attention keys) depends only on the memory, so
the segment placer's decoder projects each segment's memory once and
passes the keys to every query. The math — query projection, tanh score,
softmax over time and context sum — is written once on raw arrays, in
:func:`attention_step` and :func:`attention_step_backward`, for a stack
of ``S`` queries on one memory: each stacked product makes the same BLAS
call per query as a lone query does, so a query's context has the same
bits at any ``S``. A sampling decoder calls them once per step, and a
teacher-forced decoder, whose queries are all known before any context
is needed, calls them once per block of steps.
:class:`BahdanauAttention` holds the parameters.

The memory is ``(T,1,M)``, shared by the whole query batch: the context
is one ``einsum`` over time, bit-identical to a broadcast
multiply-and-sum, and the backward contracts the batch axis with
matmuls. Neither builds a ``(S,T,B,M)`` temporary.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.nn.linear import Linear
from repro.nn.module import Module, Parameter
from repro.nn.tensor import _unbroadcast
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

    ``memory`` is ``(T,1,M)``, shared by the query batch; any other shape
    raises ``ValueError``. ``keys (T,B,A)`` and ``query (S,B,Q)``
    broadcast over the batch axis; keys already at the query batch size
    make the score's add cheapest. ``cache`` is what
    :func:`attention_step_backward` needs.
    """
    if memory.ndim != 3 or memory.shape[1] != 1:
        raise ValueError(f"attention memory must be (T, 1, M), got {memory.shape}")
    q = query @ w_q + b_q  # (S, B, A)
    s = np.add(keys, q[:, None])  # (S, T, B, A)
    np.tanh(s, out=s)
    weights = s @ v  # (S, T, B) scores, made the weights in place
    # Softmax over time, shifted by its (constant) max.
    weights -= weights.max(axis=1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=1, keepdims=True)
    S, T, B = weights.shape
    # It adds the products in time order, as a broadcast mul-sum does.
    # Every query's weights side by side, ``(T, S·B)``, make it a lone
    # query's einsum at batch S·B: the same per-element sums, and much
    # cheaper than an "stb" subscript.
    flat_w = weights.transpose(1, 0, 2).reshape(T, S * B)
    context = np.einsum("tb,tm->bm", flat_w, memory[:, 0]).reshape(S, B, -1)
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
    # The memory is shared by the whole query batch, so the query and
    # batch axes contract with matmuls.
    flat_w = weights.transpose(1, 0, 2).reshape(T, S * B)
    dmemory = (flat_w @ g.reshape(S * B, -1))[:, None, :]
    dw = memory[:, 0, :] @ g.transpose(0, 2, 1)  # (S, T, B)
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
    """The parameters of additive attention: ``score = vᵀ tanh(W_m mem + W_q query)``."""

    def __init__(self, memory_size: int, query_size: int, attn_size: int, rng=None):
        super().__init__()
        rng = new_rng(rng)
        self.w_memory = Linear(memory_size, attn_size, bias=False, rng=rng)
        self.w_query = Linear(query_size, attn_size, bias=True, rng=rng)
        self.v = Parameter(rng.uniform(-0.1, 0.1, size=attn_size))
