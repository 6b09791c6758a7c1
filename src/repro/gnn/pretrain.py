"""The contrastive pre-training loop (paper Section 4.2).

"Before training Mars with reinforcement learning, we pre-train the graph
encoder with contrastive learning for 1000 iterations and save the
parameters corresponding to the lowest loss."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np
import scipy.sparse as sp

from repro.gnn.dgi import DGI, two_view_adjacency
from repro.nn import Adam, Module, clip_grad_norm
from repro.telemetry import Telemetry, get_telemetry
from repro.telemetry.tracing import span
from repro.utils.logging import get_logger
from repro.utils.rng import new_rng

logger = get_logger("repro.gnn.pretrain")


@dataclass
class PretrainResult:
    """Outcome of encoder pre-training."""

    best_loss: float
    best_iteration: int
    losses: List[float] = field(default_factory=list)
    best_state: Dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def iterations(self) -> int:
        return len(self.losses)


def pretrain_encoder(
    encoder: Module,
    x: np.ndarray,
    adj: sp.spmatrix,
    iterations: int = 1000,
    lr: float = 1e-3,
    grad_clip: float = 1.0,
    patience: Optional[int] = None,
    seed=None,
    telemetry: Optional[Telemetry] = None,
) -> PretrainResult:
    """Pre-train ``encoder`` with DGI on one graph; restores the best state.

    ``patience`` optionally stops early after that many iterations without
    improvement (the paper runs a fixed 1000 iterations and keeps the best).
    The DGI loss curve is recorded in the active telemetry session
    (``pretrain.loss`` histogram + one ``pretrain`` event per iteration).
    """
    rng = new_rng(seed)
    tel = telemetry or get_telemetry()
    # Every iteration encodes both views in one pass over the same
    # block-diagonal adjacency, and its backward takes the same transpose.
    views_adj = two_view_adjacency(adj)
    dgi = DGI(encoder, rng=rng)
    opt = Adam(dgi.parameters(), lr=lr)
    result = PretrainResult(best_loss=float("inf"), best_iteration=-1)
    stale = 0
    for it in range(iterations):
        with span("pretrain.step", telemetry=tel):
            opt.zero_grad()
            loss = dgi.loss(x, adj, rng, views_adj=views_adj)
            loss.backward()
            clip_grad_norm(dgi.parameters(), grad_clip)
            opt.step()
        value = loss.item()
        result.losses.append(value)
        if value < result.best_loss:
            result.best_loss = value
            result.best_iteration = it
            result.best_state = encoder.state_dict()
            stale = 0
        else:
            stale += 1
            if patience is not None and stale >= patience:
                logger.debug("pretrain early stop at iteration %d", it)
                break
        tel.counter("pretrain.iterations").inc()
        tel.histogram("pretrain.loss").observe(value)
        tel.gauge("pretrain.best_loss").set(result.best_loss)
        if tel.writes_events:
            tel.emit(
                "pretrain",
                iteration=it,
                loss=float(value),
                best_loss=float(result.best_loss),
            )
    if result.best_state:
        encoder.load_state_dict(result.best_state)
    return result
