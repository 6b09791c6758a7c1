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

from functools import partial
from typing import Optional

import numpy as np
import scipy.sparse as sp

from repro.nn import Module, Parameter, Tensor, no_grad
from repro.nn import init as nn_init
from repro.nn.tensor import stable_sigmoid
from repro.utils.rng import new_rng


def node_permutation(x: np.ndarray, rng) -> np.ndarray:
    """The corruption function: shuffle feature rows between nodes."""
    rng = new_rng(rng)
    perm = rng.permutation(x.shape[0])
    return x[perm]


def dgi_objective(h_pos: Tensor, h_neg: Tensor, w: Tensor) -> Tensor:
    """Readout, bilinear discriminator and BCE (Eqs. 4-6) as one tape node.

    ``h_pos``/``h_neg`` are the clean and corrupted node representations
    and ``w`` the discriminator matrix. The value is the mean BCE of the
    logits ``[h_pos W s; h_neg W s]`` against labels ``[1; 0]``, with
    ``s = σ(mean_i h_pos_i)``. Forward and backward keep the NumPy
    expressions of the composed ops (:meth:`DGI.readout`,
    :meth:`DGI.discriminator_logits`, ``concat`` and
    :func:`~repro.nn.functional.bce_with_logits`) and their per-tensor
    accumulation order, so both are bit-identical to that tape.
    """
    hp, hn, wd = h_pos.data, h_neg.data, w.data
    n = len(hp)
    s = stable_sigmoid(hp.sum(axis=0) * (1.0 / n))
    hw_pos = hp @ wd
    hw_neg = hn @ wd
    z = np.concatenate([hw_pos @ s, hw_neg @ s])
    y = np.concatenate([np.ones(n), np.zeros(len(hn))])
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
        g_hw_pos = np.multiply.outer(g_pos, s)
        g_hw_neg = np.multiply.outer(g_neg, s)
        # The negative view's logits were created last, so their share of
        # the summary's and ``w``'s gradients comes first; ``h_pos`` gets
        # its logits' share before the readout's.
        ds = (hw_neg * np.expand_dims(g_neg, -1)).sum(axis=(0,))
        ds += (hw_pos * np.expand_dims(g_pos, -1)).sum(axis=(0,))
        if h_neg.requires_grad:
            h_neg._accumulate(g_hw_neg @ wd.T)
        if w.requires_grad:
            w._accumulate(hn.T @ g_hw_neg)
            w._accumulate(hp.T @ g_hw_pos)
        if h_pos.requires_grad:
            h_pos._accumulate(g_hw_pos @ wd.T)
            g_mean = ds * s * (1.0 - s) * (1.0 / n)
            h_pos._accumulate(np.broadcast_to(np.expand_dims(g_mean, 0), hp.shape))

    return Tensor._make(np.asarray(loss), (h_pos, h_neg, w), backward)


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

    def loss(
        self, x: np.ndarray, adj: sp.spmatrix, rng, adj_t: Optional[sp.spmatrix] = None
    ) -> Tensor:
        """One contrastive step: corrupt, encode both views, score, BCE.

        With a GCN encoder this is 3 tape nodes: the two encoder passes and
        :func:`dgi_objective`. ``adj_t`` (``adj``'s transpose as CSR) is
        handed to such an encoder so its backward need not build it.
        """
        x_neg = node_permutation(x, rng)
        encode = self.encoder if adj_t is None else partial(self.encoder, adj_t=adj_t)
        h_pos = encode(x, adj)
        h_neg = encode(x_neg, adj)
        return dgi_objective(h_pos, h_neg, self.w_disc)

    def accuracy(self, x: np.ndarray, adj: sp.spmatrix, rng) -> float:
        """Discriminator accuracy on a fresh corruption (diagnostics)."""
        x_neg = node_permutation(x, rng)
        with no_grad():
            h_pos = self.encoder(x, adj)
            h_neg = self.encoder(x_neg, adj)
            summary = self.readout(h_pos)
            pos = self.discriminator_logits(h_pos, summary).data > 0
            neg = self.discriminator_logits(h_neg, summary).data <= 0
        return float((pos.sum() + neg.sum()) / (len(pos) + len(neg)))
