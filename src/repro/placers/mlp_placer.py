"""Two-layer MLP placer — the simplest design considered in Section 3.3.

The paper observes it "easily overfits, gets stuck at a local optimum and
can never find a good placement"; it is included for the placer-design
ablation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn import MLP, Tensor
from repro.placers.base import Placer, PlacerOutput, logits_to_choice
from repro.utils.rng import new_rng


class MLPPlacer(Placer):
    def __init__(self, input_dim: int, num_devices: int, hidden_size: int = 256, rng=None):
        super().__init__()
        rng = new_rng(rng)
        self.input_dim = input_dim
        self.num_devices = num_devices
        self.net = MLP([input_dim, hidden_size, num_devices], activation="relu", rng=rng)

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
        logits = self.net(reps)  # (N, D), factored per op
        batched = logits.broadcast_to((B, n_ops, self.num_devices)) if B > 1 else logits.reshape(1, n_ops, self.num_devices)
        choices, logp, ent = logits_to_choice(batched, rng, actions, greedy)
        return PlacerOutput(actions=choices, log_probs=logp, entropy=ent)
