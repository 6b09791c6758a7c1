"""Graph convolutional network encoder (paper Eq. 1/3).

``GCN(X, A) = PReLU( D̂^{-1/2} Â D̂^{-1/2} X Θ )`` — Mars stacks three such
layers with 256 hidden units each (Section 4.2).

A layer's math lives once, in :func:`gcn_layer` and
:func:`gcn_layer_backward`, which work on raw arrays. :func:`gcn_op` loops
them over a stack of layers as one tape node, so an encoder pass is one
node (:meth:`GCNEncoder.forward`) and so is a single layer
(:meth:`GCNLayer.forward`). The helpers round exactly as the composed
``Linear`` → ``spmm`` → ``PReLU`` ops do (they only drop pairs of
negations), so values and gradients are bit-identical to theirs.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

from repro.nn import Module, PReLU, Tensor
from repro.nn.linear import Linear
from repro.nn.tensor import _unbroadcast, as_tensor, is_grad_enabled
from repro.utils.rng import new_rng


def gcn_layer(
    h: np.ndarray, W: np.ndarray, b: np.ndarray, slope: np.ndarray, adj: sp.spmatrix
) -> Tuple[np.ndarray, tuple]:
    """One GCN layer on raw arrays: ``(PReLU(adj @ (h @ W + b)), cache)``.

    ``cache`` is what :func:`gcn_layer_backward` needs.
    """
    a = adj @ (h @ W + b)
    pos = a > 0
    neg_mask = a < 0
    # PReLU as ``relu(a) + (-relu(-a)) * slope``: the negative part is
    # ``-0.0`` wherever ``a`` is not negative.
    neg = np.where(neg_mask, a, -0.0)
    return np.where(pos, a, 0.0) + neg * slope, (h, pos, neg_mask, neg)


def gcn_layer_backward(
    g: np.ndarray,
    cache: tuple,
    W: np.ndarray,
    slope: np.ndarray,
    adj_t: sp.spmatrix,
    need_dh: bool = True,
) -> Tuple[Optional[np.ndarray], np.ndarray, np.ndarray, np.ndarray]:
    """Backward of :func:`gcn_layer`: ``(dh, dW, db, dslope)``.

    ``g`` is the gradient of the layer's output and ``adj_t`` is ``adj``'s
    transpose as CSR. ``dh`` is ``None`` unless ``need_dh``.
    """
    h, pos, neg_mask, neg = cache
    dslope = _unbroadcast(g * neg, slope.shape)
    da = (g * slope) * neg_mask
    da += g * pos
    dz = adj_t @ da
    dh = dz @ W.T if need_dh else None
    return dh, h.T @ dz, dz.sum(axis=0), dslope


def gcn_op(
    x: Tensor,
    layers: Sequence["GCNLayer"],
    adj: sp.spmatrix,
    adj_t: Optional[sp.spmatrix] = None,
) -> Tensor:
    """``layers`` applied in turn to ``x`` as one tape node.

    The backward walks the layers in reverse and feeds every layer's
    weight, bias and slope, and ``x`` when it requires grad. ``adj_t`` is
    ``adj``'s transpose as CSR; without it the backward builds it once.
    """
    params = [(l.linear.weight, l.linear.bias, l.act.slope) for l in layers]
    parents = (x,) + tuple(p for triple in params for p in triple)
    keep = is_grad_enabled() and any(p.requires_grad for p in parents)
    h = x.data
    caches = []
    for w, b, slope in params:
        h, cache = gcn_layer(h, w.data, b.data, slope.data, adj)
        if keep:
            caches.append(cache)

    def backward(g: np.ndarray) -> None:
        at = adj.T.tocsr() if adj_t is None else adj_t
        for i in range(len(params) - 1, -1, -1):
            w, b, slope = params[i]
            need_dh = i > 0 or x.requires_grad
            g, dw, db, dslope = gcn_layer_backward(
                g, caches[i], w.data, slope.data, at, need_dh
            )
            for p, d in ((slope, dslope), (b, db), (w, dw)):
                if p.requires_grad:
                    p._accumulate(d)
        if x.requires_grad:
            x._accumulate(g)

    return Tensor._make(h, parents, backward)


class GCNLayer(Module):
    """One graph convolution with PReLU activation."""

    def __init__(self, in_dim: int, out_dim: int, rng=None):
        super().__init__()
        self.linear = Linear(in_dim, out_dim, bias=True, rng=rng)
        self.act = PReLU()

    def forward(self, x: Tensor, adj: sp.spmatrix) -> Tensor:
        return gcn_op(x, [self], adj)


class GCNEncoder(Module):
    """The Mars graph encoder: ``num_layers`` GCN layers (default 3)."""

    def __init__(self, in_dim: int, hidden_dim: int = 256, num_layers: int = 3, rng=None):
        super().__init__()
        if num_layers < 1:
            raise ValueError("need at least one GCN layer")
        rng = new_rng(rng)
        self.in_dim = in_dim
        self.hidden_dim = hidden_dim
        self.layers: List[GCNLayer] = []
        for i in range(num_layers):
            layer = GCNLayer(in_dim if i == 0 else hidden_dim, hidden_dim, rng=rng)
            self.register_module(f"gcn{i}", layer)
            self.layers.append(layer)

    @property
    def out_dim(self) -> int:
        return self.hidden_dim

    def forward(
        self,
        x: Union[np.ndarray, Tensor],
        adj: sp.spmatrix,
        adj_t: Optional[sp.spmatrix] = None,
    ) -> Tensor:
        """One tape node for the whole pass; ``adj_t`` as in :func:`gcn_op`."""
        return gcn_op(as_tensor(x), self.layers, adj, adj_t)
