"""Context-based input attention (Bahdanau et al., 2015).

This is the attention mechanism named in Section 4.2 of the paper: the
decoder state queries the encoder memory, producing a context vector that is
concatenated with the decoder input.

The memory projection (the attention keys) depends only on the memory, so a
decoder projects it once with :meth:`BahdanauAttention.project_memory` and
passes the keys to every step. Each step — query projection, tanh score,
softmax over time and context sum — is one op with a hand-written backward.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.linear import Linear
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor, _unbroadcast
from repro.utils.rng import new_rng


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
        mem = memory.data
        q = query.data @ w_q.data + b_q.data  # (B, A)
        s = np.tanh(keys.data + q)  # (T, B, A)
        scores = s @ v.data  # (T, B)
        # Softmax over time, shifted by its (constant) max.
        e = np.exp(scores - scores.max(axis=0, keepdims=True))
        weights = e / e.sum(axis=0, keepdims=True)
        T, B = weights.shape
        context = (mem * weights.reshape(T, B, 1)).sum(axis=0)

        def backward(g: np.ndarray) -> None:
            # A memory shared by the whole query batch (the placer's case)
            # contracts the batch axis with matmuls, not (T,B,M) temporaries.
            shared = mem.shape[1] == 1
            if memory.requires_grad:
                if shared:
                    memory._accumulate((weights @ g)[:, None, :])
                else:
                    memory._accumulate(_unbroadcast(g * weights.reshape(T, B, 1), mem.shape))
            dw = mem[:, 0, :] @ g.T if shared else (mem * g).sum(axis=2)
            dscores = weights * (dw - (dw * weights).sum(axis=0, keepdims=True))
            if v.requires_grad:
                v._accumulate(dscores.reshape(-1) @ s.reshape(T * B, -1))
            dpre = np.multiply.outer(dscores, v.data) * (1.0 - s**2)
            if keys.requires_grad:
                keys._accumulate(_unbroadcast(dpre, keys.shape))
            dq = _unbroadcast(dpre, q.shape)
            if b_q.requires_grad:
                b_q._accumulate(dq.sum(axis=0))
            if w_q.requires_grad:
                w_q._accumulate(query.data.T @ dq)
            if query.requires_grad:
                query._accumulate(_unbroadcast(dq @ w_q.data.T, query.shape))

        return Tensor._make(context, (keys, memory, query, w_q, b_q, v), backward)
