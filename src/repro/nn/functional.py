"""Composite differentiable operations built on :class:`repro.nn.Tensor`.

These are the numerically careful pieces: softmax family via the
log-sum-exp trick, sparse-dense matmul for GCN layers, dropout, and the
losses used by DGI pre-training and PPO.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np
import scipy.sparse as sp

from repro.nn.tensor import Tensor, as_tensor


def logsumexp(x: Tensor, axis: int = -1, keepdims: bool = False) -> Tensor:
    """Numerically stable ``log(sum(exp(x)))`` along ``axis``."""
    m = Tensor(x.data.max(axis=axis, keepdims=True))  # constant shift
    shifted = x - m
    out = shifted.exp().sum(axis=axis, keepdims=True).log() + m
    if not keepdims:
        out = Tensor.reshape(out, _squeeze_shape(out.shape, axis))
    return out


def _squeeze_shape(shape, axis):
    axis = axis % len(shape)
    return tuple(s for i, s in enumerate(shape) if i != axis)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis`` (stable via max-shift)."""
    m = Tensor(x.data.max(axis=axis, keepdims=True))
    e = (x - m).exp()
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Log-softmax along ``axis`` (stable via log-sum-exp)."""
    return x - logsumexp(x, axis=axis, keepdims=True)


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout; identity when ``training`` is false or ``p == 0``."""
    if not training or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    mask = (rng.random(x.shape) >= p) / (1.0 - p)
    return x * Tensor(mask)


def spmm(adj: sp.spmatrix, x: Tensor) -> Tensor:
    """Sparse ``adj`` (constant) times dense ``x`` with autodiff on ``x``.

    Used by GraphSAGE layers, whose neighbor-mean adjacency is a fixed CSR
    matrix; the backward pass is ``adjᵀ @ grad``, with the transpose built
    only when a backward runs.
    """
    if adj.format != "csr":
        adj = adj.tocsr()
    out_data = adj @ x.data

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(adj.T.tocsr() @ g)

    return Tensor._make(np.asarray(out_data), (x,), backward)


def bce_with_logits(logits: Tensor, targets: Union[np.ndarray, Tensor]) -> Tensor:
    """Mean binary cross-entropy on raw scores.

    Stable formulation ``max(z,0) - z*y + log(1 + exp(-|z|))`` — this is the
    Jensen-Shannon style objective used by Deep Graph Infomax (Eq. 6).
    """
    y = targets.data if isinstance(targets, Tensor) else np.asarray(targets, dtype=float)
    z = logits
    relu_z = z.relu()
    abs_z = z.abs()
    loss = relu_z - z * Tensor(y) + ((-abs_z).exp() + 1.0).log()
    return loss.mean()


def gather_log_probs(log_probs: Tensor, actions: np.ndarray) -> Tensor:
    """Pick ``log_probs[..., actions]`` along the last axis.

    ``log_probs`` has shape ``(..., n_actions)`` and ``actions`` the matching
    leading shape; the result drops the action axis.
    """
    actions = np.asarray(actions, dtype=np.intp)
    if actions.shape != log_probs.shape[:-1]:
        raise ValueError(
            f"actions shape {actions.shape} incompatible with log_probs "
            f"shape {log_probs.shape}"
        )
    idx = tuple(np.indices(actions.shape)) + (actions,)
    return log_probs[idx]


def categorical_entropy(log_probs: Tensor, axis: int = -1) -> Tensor:
    """Entropy of categorical distributions given log-probabilities."""
    p = log_probs.exp()
    return -(p * log_probs).sum(axis=axis)


def mse(pred: Tensor, target: Union[np.ndarray, Tensor]) -> Tensor:
    """Mean squared error against a constant target."""
    t = as_tensor(target).detach()
    diff = pred - t
    return (diff * diff).mean()
