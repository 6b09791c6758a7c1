"""Transformer-XL placer (the GDP [33] design used as a baseline).

Processes the op sequence segment by segment through a Transformer-XL
stack (segment-recurrent memory + relative positions) and predicts each
op's device from its contextual representation with a linear head. The
policy is factored per op (no feedback of sampled devices), as in GDP.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.nn import Linear, Tensor, TransformerXL, concat
from repro.placers.base import Placer, PlacerOutput, logits_to_choice
from repro.utils.rng import new_rng


class TransformerXLPlacer(Placer):
    def __init__(
        self,
        input_dim: int,
        num_devices: int,
        model_dim: int = 128,
        n_layers: int = 2,
        n_heads: int = 4,
        segment_size: int = 128,
        mem_len: Optional[int] = None,
        rng=None,
    ):
        super().__init__()
        rng = new_rng(rng)
        if segment_size < 1:
            raise ValueError("segment_size must be positive")
        self.input_dim = input_dim
        self.num_devices = num_devices
        self.segment_size = segment_size
        self.in_proj = Linear(input_dim, model_dim, rng=rng)
        self.transformer = TransformerXL(
            dim=model_dim,
            n_layers=n_layers,
            n_heads=n_heads,
            mem_len=mem_len if mem_len is not None else segment_size,
            rng=rng,
        )
        self.head = Linear(model_dim, num_devices, rng=rng)

    def run(
        self,
        reps: Tensor,
        n_samples: int = 1,
        actions: Optional[np.ndarray] = None,
        rng: Optional[np.random.Generator] = None,
        greedy: int = 0,
    ) -> PlacerOutput:
        n_ops = reps.shape[0]
        B = n_samples if actions is None else actions.shape[0]

        seq = self.in_proj(reps).reshape(n_ops, 1, -1)
        self.transformer.reset_memory()
        logits_parts: List[Tensor] = []
        for lo in range(0, n_ops, self.segment_size):
            segment = seq[lo : min(lo + self.segment_size, n_ops)]
            out = self.transformer(segment)  # (s, 1, dim)
            logits_parts.append(self.head(out))
        logits = concat(logits_parts, axis=0).reshape(n_ops, self.num_devices)
        # Factored policy: the same per-op categorical serves every sample.
        batched = logits.broadcast_to((B, n_ops, self.num_devices)) if B > 1 else logits.reshape(1, n_ops, self.num_devices)
        choices, logp, ent = logits_to_choice(batched, rng, actions, greedy)
        return PlacerOutput(actions=choices, log_probs=logp, entropy=ent)
