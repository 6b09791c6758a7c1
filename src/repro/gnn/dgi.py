"""Deep Graph Infomax (Veličković et al., 2019) — paper Section 3.2.

The self-supervised objective Mars pre-trains its encoder with:

1. corruption ``(X̃, Ã) ~ C(X, A)`` — node (feature-row) permutation, the
   graph structure is kept (Eq. 2, Fig. 5);
2. node representations ``H = GCNs(X, A)`` (Eq. 3);
3. readout ``s = σ(mean_i h_i)`` (Eq. 4);
4. bilinear discriminator ``D(h, s) = σ(hᵀ W s)`` (Eq. 5);
5. binary cross-entropy between positive pairs (real nodes vs. summary) and
   negative pairs (corrupted nodes vs. summary) — the Jensen-Shannon MI
   bound of Eq. 6.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.gnn.gcn import GCNEncoder, stack_views, view_matmul
from repro.nn import Module, Parameter, Tensor, no_grad
from repro.nn import init as nn_init
from repro.nn.tensor import stable_sigmoid
from repro.utils.rng import new_rng


def node_permutation(x: np.ndarray, rng) -> np.ndarray:
    """The corruption function: shuffle feature rows between nodes."""
    rng = new_rng(rng)
    perm = rng.permutation(x.shape[0])
    return x[perm]


def two_view_adjacency(adj: sp.spmatrix) -> Tuple[sp.csr_matrix, sp.csr_matrix]:
    """``(diag(adj, adj), its transpose)`` as CSR: the adjacency one encoder
    pass over both DGI views runs on, and the one its backward takes."""
    pair = stack_views(adj, 2)
    return pair, pair.T.tocsr()


def dgi_objective(h: Tensor, w: Tensor) -> Tensor:
    """Readout, bilinear discriminator and BCE (Eqs. 4-6) as one tape node.

    ``h`` stacks the clean node representations over the corrupted ones
    (``2n`` rows) and ``w`` is the discriminator matrix. The value is the
    mean BCE of the logits ``[h_pos W s; h_neg W s]`` against labels
    ``[1; 0]``, with ``s = σ(mean_i h_pos_i)``. Forward and backward keep
    the NumPy expressions of the composed ops (:meth:`DGI.readout`,
    :meth:`DGI.discriminator_logits`, ``concat`` and the stable BCE
    ``max(z,0) - z*y + log(1 + exp(-|z|))``) on each view and their
    per-tensor accumulation order, so both are bit-identical to that tape
    over two separate encoder passes. Each view keeps its own logit
    product ``hw @ s``: a matrix-vector product's rounding of a row can
    depend on the row count.
    """
    hd, wd = h.data, w.data
    n = len(hd) // 2
    hp, hn = hd[:n], hd[n:]
    s = stable_sigmoid(hp.sum(axis=0) * (1.0 / n))
    hw = view_matmul(hd, wd, 2)
    hw_pos, hw_neg = hw[:n], hw[n:]
    z = np.concatenate([hw_pos @ s, hw_neg @ s])
    y = np.concatenate([np.ones(n), np.zeros(n)])
    e = np.exp(-np.abs(z))
    e1 = e + 1.0
    inv = 1.0 / z.size
    loss = ((np.where(z > 0, z, 0.0) + (-(z * y))) + np.log(e1)).sum() * inv

    def backward(g: np.ndarray) -> None:
        # The BCE's gradient w.r.t. the logits, term by term in tape order.
        gz = np.broadcast_to(g * inv, z.shape)
        dz = (-gz) * y
        dz += (-((gz / e1) * e)) * np.sign(z)
        dz += gz * (z > 0)
        g_pos, g_neg = dz[:n], dz[n:]
        g_hw = np.multiply.outer(dz, s)
        g_hw_pos, g_hw_neg = g_hw[:n], g_hw[n:]
        # The negative view's logits were created last, so their share of
        # the summary's and ``w``'s gradients comes first; the clean view
        # gets its logits' share before the readout's.
        ds = (hw_neg * np.expand_dims(g_neg, -1)).sum(axis=(0,))
        ds += (hw_pos * np.expand_dims(g_pos, -1)).sum(axis=(0,))
        if w.requires_grad:
            w._accumulate(hn.T @ g_hw_neg)
            w._accumulate(hp.T @ g_hw_pos)
        if h.requires_grad:
            gh = view_matmul(g_hw, wd.T, 2)
            g_mean = ds * s * (1.0 - s) * (1.0 / n)
            gh[:n] += np.expand_dims(g_mean, 0)
            h._accumulate(gh)

    return Tensor._make(np.asarray(loss), (h, w), backward)


class DGI(Module):
    """Wraps an encoder with the DGI readout/discriminator and loss."""

    def __init__(self, encoder: Module, rng=None):
        super().__init__()
        rng = new_rng(rng)
        self.encoder = encoder
        dim = encoder.out_dim
        self.w_disc = Parameter(nn_init.xavier_uniform(rng, dim, dim))

    def readout(self, h: Tensor) -> Tensor:
        """Graph summary: sigmoid of the node-representation mean (Eq. 4)."""
        return h.mean(axis=0).sigmoid()

    def discriminator_logits(self, h: Tensor, summary: Tensor) -> Tensor:
        """Raw bilinear scores ``hᵀ W s`` (the sigmoid lives in the loss)."""
        return h @ self.w_disc @ summary

    def encode_views(
        self, x: np.ndarray, adj: sp.spmatrix, rng, views_adj: Optional[tuple] = None
    ) -> Tensor:
        """The clean and a corrupted view's node representations, stacked
        (``2n`` rows), from one encoder pass over both.

        ``views_adj`` is :func:`two_view_adjacency` of ``adj``; it is built
        here when not given.
        """
        x_neg = node_permutation(x, rng)
        pair, pair_t = two_view_adjacency(adj) if views_adj is None else views_adj
        xs = np.concatenate((x, x_neg))
        if isinstance(self.encoder, GCNEncoder):
            return self.encoder(xs, pair, adj_t=pair_t, views=2)
        return self.encoder(xs, pair)

    def loss(
        self, x: np.ndarray, adj: sp.spmatrix, rng, views_adj: Optional[tuple] = None
    ) -> Tensor:
        """One contrastive step: corrupt, encode both views, score, BCE.

        With a GCN encoder this is 2 tape nodes: the stacked encoder pass
        and :func:`dgi_objective`. ``views_adj`` as in :meth:`encode_views`.
        """
        return dgi_objective(self.encode_views(x, adj, rng, views_adj), self.w_disc)

    def accuracy(self, x: np.ndarray, adj: sp.spmatrix, rng) -> float:
        """Discriminator accuracy on a fresh corruption (diagnostics)."""
        with no_grad():
            h = self.encode_views(x, adj, rng)
            n = len(x)
            h_pos, h_neg = h[:n], h[n:]
            summary = self.readout(h_pos)
            pos = self.discriminator_logits(h_pos, summary).data > 0
            neg = self.discriminator_logits(h_neg, summary).data <= 0
        return float((pos.sum() + neg.sum()) / (len(pos) + len(neg)))
