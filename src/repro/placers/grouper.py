"""The learned grouper of the grouper-placer baseline [20].

A feed-forward network maps each op's raw features to a categorical over
``num_groups``; ops sampled into the same group are merged by averaging
their features into a group embedding, which a seq2seq placer then places.
The grouper is trained jointly with the placer by policy gradient — the
log-probability of a full decision is the sum of per-op group
log-probabilities and per-group device log-probabilities.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn import MLP, Module, Tensor
from repro.placers.base import logits_to_choice
from repro.utils.rng import new_rng


class MLPGrouper(Module):
    """Two-layer MLP producing a group distribution per op."""

    def __init__(self, input_dim: int, num_groups: int, hidden_size: int = 64, rng=None):
        super().__init__()
        rng = new_rng(rng)
        self.input_dim = input_dim
        self.num_groups = num_groups
        self.net = MLP([input_dim, hidden_size, num_groups], activation="relu", rng=rng)

    def run(
        self,
        features: Tensor,
        n_samples: int = 1,
        actions: Optional[np.ndarray] = None,
        rng: Optional[np.random.Generator] = None,
        greedy: int = 0,
    ):
        """Sample (or score) group assignments; returns ``(groups, logp, ent)``
        with ``groups`` of shape ``(B, num_ops)``."""
        n_ops = features.shape[0]
        B = n_samples if actions is None else actions.shape[0]
        logits = self.net(features)  # (N, G)
        batched = logits.broadcast_to((B, n_ops, self.num_groups)) if B > 1 else logits.reshape(1, n_ops, self.num_groups)
        return logits_to_choice(batched, rng, actions, greedy)

    @staticmethod
    def group_embeddings(features: np.ndarray, groups: np.ndarray, num_groups: int) -> np.ndarray:
        """Mean op features per group, batched over samples.

        ``features`` is ``(N, F)``, ``groups`` is ``(B, N)``; the result is
        ``(B, num_groups, F)`` with zero vectors for empty groups (matching
        the hierarchical model, where group embeddings are feature averages
        and carry no gradient to the grouper — credit flows via REINFORCE).
        """
        B, n = groups.shape
        out = np.zeros((B, num_groups, features.shape[1]))
        counts = np.zeros((B, num_groups))
        for b in range(B):
            np.add.at(out[b], groups[b], features)
            counts[b] = np.bincount(groups[b], minlength=num_groups)
        nonzero = counts > 0
        out[nonzero] /= counts[nonzero][:, None]
        return out
