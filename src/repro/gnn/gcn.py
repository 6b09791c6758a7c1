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

The op also runs several inputs over the same graph as one pass (DGI's
clean and corrupted views): their rows are stacked, the adjacency is
:func:`stack_views`'s block diagonal, and every row and every
per-input gradient rounds as in a pass of its own.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

from repro.nn import Module, PReLU, Tensor
from repro.nn.linear import Linear
from repro.nn.tensor import _unbroadcast, as_tensor, is_grad_enabled
from repro.utils.rng import new_rng


def stack_views(adj: sp.spmatrix, views: int) -> sp.csr_matrix:
    """``diag(adj, ..., adj)`` with ``views`` blocks, as CSR.

    Each row keeps ``adj``'s entries in their stored order, so a sparse
    product with it rounds every row as the product with ``adj`` does.
    """
    adj = adj.tocsr()
    n, nnz = adj.shape[0], adj.nnz
    shift = np.arange(views)[:, None]
    indices = (adj.indices + n * shift).ravel().astype(adj.indices.dtype)
    indptr = np.concatenate(([0], (adj.indptr[1:] + nnz * shift).ravel()))
    return sp.csr_matrix(
        (np.tile(adj.data, views), indices, indptr.astype(adj.indptr.dtype)),
        shape=(views * n, views * n),
    )


def _view_blocks(a: np.ndarray, views: int) -> List[np.ndarray]:
    """``a``'s ``views`` equal row blocks, as views of ``a``."""
    n = len(a) // views
    return [a[k * n : (k + 1) * n] for k in range(views)]


def view_matmul(a: np.ndarray, b: np.ndarray, views: int = 1) -> np.ndarray:
    """``a @ b`` for ``views`` equal row blocks stacked in ``a``: one product
    per block, written into one output.

    BLAS may round a row differently at another row count (a product with
    one row goes to gemv, and gemm's edge blocks depend on the count), so
    stacking rows into one product would not keep each block's bits.
    """
    if views == 1:
        return a @ b
    out = np.empty((len(a), b.shape[1]))
    for block, dst in zip(_view_blocks(a, views), _view_blocks(out, views)):
        np.matmul(block, b, out=dst)
    return out


def gcn_layer(
    h: np.ndarray,
    W: np.ndarray,
    b: np.ndarray,
    slope: np.ndarray,
    adj: sp.spmatrix,
    views: int = 1,
) -> Tuple[np.ndarray, tuple]:
    """One GCN layer on raw arrays: ``(PReLU(adj @ (h @ W + b)), cache)``.

    ``h`` stacks ``views`` inputs and ``adj`` is then their block-diagonal
    adjacency. ``cache`` is what :func:`gcn_layer_backward` needs.
    """
    z = view_matmul(h, W, views)
    z += b
    out, masks = prelu(adj @ z, slope)
    return out, (h,) + masks


def prelu(a: np.ndarray, slope: np.ndarray) -> Tuple[np.ndarray, tuple]:
    """``relu(a) + (-relu(-a)) * slope``, written over ``a``, and the
    ``(pos, neg_mask, neg)`` arrays its backward takes.

    The negative part ``neg`` is ``-0.0`` wherever ``a`` is not negative.
    ``maximum``/``minimum`` against a zero of the right sign give the bits
    of the masked selects the composed ops make for every input but NaN,
    which they keep where a select gave a zero.
    """
    pos = a > 0
    neg_mask = a < 0
    neg = np.minimum(a, -0.0)
    out = np.maximum(a, 0.0, out=a)
    out += neg * slope
    return out, (pos, neg_mask, neg)


def gcn_layer_backward(
    g: np.ndarray,
    cache: tuple,
    W: np.ndarray,
    slope: np.ndarray,
    adj_t: sp.spmatrix,
    need_dh: bool = True,
    views: int = 1,
) -> Tuple[Optional[np.ndarray], list, list, list]:
    """Backward of :func:`gcn_layer`: ``(dh, dWs, dbs, dslopes)``.

    ``g`` is the gradient of the layer's output and ``adj_t`` is ``adj``'s
    transpose as CSR. ``dh`` is ``None`` unless ``need_dh``. The weight,
    bias and slope gradients come one per view, each its view's own
    product or reduction.
    """
    h, pos, neg_mask, neg = cache
    g_neg = g * neg
    da = g * slope
    da *= neg_mask
    da += g * pos
    dz = adj_t @ da
    dh = view_matmul(dz, W.T, views) if need_dh else None
    blocks = zip(_view_blocks(h, views), _view_blocks(dz, views), _view_blocks(g_neg, views))
    dws, dbs, dslopes = [], [], []
    for hv, dzv, gv in blocks:
        dws.append(hv.T @ dzv)
        dbs.append(dzv.sum(axis=0))
        dslopes.append(_unbroadcast(gv, slope.shape))
    return dh, dws, dbs, dslopes


def gcn_op(
    x: Tensor,
    layers: Sequence["GCNLayer"],
    adj: sp.spmatrix,
    adj_t: Optional[sp.spmatrix] = None,
    views: int = 1,
) -> Tensor:
    """``layers`` applied in turn to ``x`` as one tape node.

    The backward walks the layers in reverse and feeds every layer's
    weight, bias and slope, and ``x`` when it requires grad. ``adj_t`` is
    ``adj``'s transpose as CSR; without it the backward builds it once.

    With ``views > 1``, ``x`` stacks that many equal row blocks and
    ``adj`` is :func:`stack_views` of the graph's adjacency: the values
    are those of one pass per block, and each parameter takes one
    gradient per block, the last block's first, as the tape adds those of
    separate passes made in block order.
    """
    params = [(l.linear.weight, l.linear.bias, l.act.slope) for l in layers]
    parents = (x,) + tuple(p for triple in params for p in triple)
    keep = is_grad_enabled() and any(p.requires_grad for p in parents)
    h = x.data
    caches = []
    for w, b, slope in params:
        h, cache = gcn_layer(h, w.data, b.data, slope.data, adj, views)
        if keep:
            caches.append(cache)

    def backward(g: np.ndarray) -> None:
        at = adj.T.tocsr() if adj_t is None else adj_t
        for i in range(len(params) - 1, -1, -1):
            w, b, slope = params[i]
            need_dh = i > 0 or x.requires_grad
            g, dws, dbs, dslopes = gcn_layer_backward(
                g, caches[i], w.data, slope.data, at, need_dh, views
            )
            for v in range(views - 1, -1, -1):
                for p, d in ((slope, dslopes[v]), (b, dbs[v]), (w, dws[v])):
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
        views: int = 1,
    ) -> Tensor:
        """One tape node for the whole pass; ``adj_t`` and ``views`` as in
        :func:`gcn_op`."""
        return gcn_op(as_tensor(x), self.layers, adj, adj_t, views)
