"""Shared placer interface and categorical sampling utilities."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.nn import Module, Tensor
from repro.nn.functional import log_softmax


@dataclass
class PlacerOutput:
    """Result of running a placer over a node-representation sequence.

    ``log_probs``/``entropy`` are differentiable tensors of shape
    ``(batch, num_ops)`` — per-op log-likelihood of the chosen device and
    per-op policy entropy.
    """

    actions: np.ndarray
    log_probs: Tensor
    entropy: Tensor


def sample_categorical(probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Vectorized sampling from rows of a ``(..., K)`` probability array."""
    r = rng.random(probs.shape[:-1] + (1,))
    cdf = np.cumsum(probs, axis=-1)
    # Guard the final edge against floating-point undershoot.
    cdf[..., -1] = 1.0 + 1e-12
    return (r > cdf).sum(axis=-1).astype(np.int64)


def logits_to_choice(
    logits: Tensor,
    rng: Optional[np.random.Generator],
    actions: Optional[np.ndarray],
    greedy: int = 0,
) -> Tuple[np.ndarray, Tensor, Tensor]:
    """Sample (or teacher-force) device choices from ``logits (B, ..., K)``.

    The last ``greedy`` of the ``B`` rows take the argmax; the leading
    rows sample, drawing the uniforms a batch of ``B - greedy`` draws.
    Teacher-forced ``actions`` must have the leading shape of ``logits``.
    Returns ``(choices, log_prob, entropy)`` where the latter two are
    differentiable and have the leading shape of ``logits``.
    """
    logp = log_softmax(logits, axis=-1)
    if actions is None:
        n = check_greedy(greedy, logits.shape[0])
        choices = np.empty(logits.shape[:-1], dtype=np.int64)
        choices[n:] = np.argmax(logits.data[n:], axis=-1)
        if n:
            if rng is None:
                raise ValueError("sampling requires an rng")
            probs = np.exp(logp.data[:n])
            probs /= probs.sum(axis=-1, keepdims=True)
            choices[:n] = sample_categorical(probs, rng)
    else:
        choices = np.asarray(actions, dtype=np.int64)
        if choices.shape != logits.shape[:-1]:
            raise ValueError(
                f"actions shape {choices.shape} != logits' leading shape {logits.shape[:-1]}"
            )
    idx = tuple(np.indices(choices.shape)) + (choices,)
    chosen_logp = logp[idx]
    p = logp.exp()
    entropy = -(p * logp).sum(axis=-1)
    return choices, chosen_logp, entropy


def check_greedy(greedy: int, n_samples: int) -> int:
    """The number of sampled rows in a batch of ``n_samples`` whose last
    ``greedy`` rows take the argmax; raises unless ``0 <= greedy <= n_samples``."""
    if not 0 <= greedy <= n_samples:
        raise ValueError(f"greedy must be in [0, {n_samples}], got {greedy}")
    return n_samples - greedy


class Placer(Module):
    """Common interface: run over ``reps`` and produce a placement batch."""

    num_devices: int

    def run(
        self,
        reps: Tensor,
        n_samples: int = 1,
        actions: Optional[np.ndarray] = None,
        rng: Optional[np.random.Generator] = None,
        greedy: int = 0,
    ) -> PlacerOutput:  # pragma: no cover - abstract
        """``reps`` is ``(num_ops, dim)``; ``actions`` (if given) is
        ``(n_samples, num_ops)`` and is scored instead of sampling.
        Otherwise the last ``greedy`` of the ``n_samples`` rows decode by
        argmax, and the leading rows sample exactly as
        ``run(reps, n_samples - greedy, rng=rng)`` would, drawing the
        same uniforms from ``rng``."""
        raise NotImplementedError

    def forward(self, *args, **kwargs) -> PlacerOutput:
        return self.run(*args, **kwargs)
