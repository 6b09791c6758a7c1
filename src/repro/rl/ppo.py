"""Proximal policy optimization (Schulman et al., 2017) — paper §3.4/§4.2.

Hyper-parameters follow Section 4.2: clip ratio 0.2, entropy coefficient
0.001, Adam with lr 3e-4, gradient clipping at norm 1.0; 10 placements
sampled per policy, updates over the last 20 samples in 4 mini-batches for
3 epochs.

The surrogate is computed per decision (per op, and per group for the
grouper-placer) with the sample's advantage broadcast over its decisions —
the standard factored-action PPO formulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.nn import Adam, Tensor, clip_grad_norm, minimum
from repro.rl.policy import AgentRollout, PolicyAgent
from repro.telemetry import get_telemetry
from repro.telemetry.tracing import span
from repro.utils.rng import new_rng


@dataclass
class PPOConfig:
    clip_ratio: float = 0.2
    entropy_coef: float = 1e-3
    learning_rate: float = 3e-4
    epochs: int = 3
    minibatches: int = 4
    grad_clip_norm: float = 1.0


@dataclass
class UpdateStats:
    policy_loss: float = 0.0
    entropy: float = 0.0
    clip_fraction: float = 0.0
    approx_kl: float = 0.0  # mean(logp_old - logp_new) over decisions
    grad_norm: float = 0.0
    passes: int = 0


class PPOUpdater:
    """Owns the optimizer and performs the clipped-surrogate updates."""

    def __init__(self, agent: PolicyAgent, config: Optional[PPOConfig] = None, seed=None):
        self.agent = agent
        # A fresh default per updater: a shared `config=PPOConfig()` default
        # would alias one instance across every updater in the process.
        self.config = config if config is not None else PPOConfig()
        self.optimizer = Adam(agent.parameters(), lr=self.config.learning_rate)
        self.rng = new_rng(seed)

    def state_dict(self) -> dict:
        """Optimizer moments + shuffle-rng state, for crash-safe resume.

        When the trainer shares its Generator with the updater (the usual
        wiring), restoring both is idempotent — they are the same object.
        """
        return {
            "optimizer": self.optimizer.state_dict(),
            "rng_state": self.rng.bit_generator.state,
        }

    def load_state_dict(self, state: dict) -> None:
        self.optimizer.load_state_dict(state["optimizer"])
        self.rng.bit_generator.state = state["rng_state"]

    def update(self, rollout: AgentRollout, advantages: np.ndarray) -> UpdateStats:
        cfg = self.config
        n = rollout.batch_size
        stats = UpdateStats()
        tel = get_telemetry()
        for _ in range(cfg.epochs):
            perm = self.rng.permutation(n)
            for chunk in np.array_split(perm, min(cfg.minibatches, n)):
                if len(chunk) == 0:
                    continue
                sub = rollout.subset(chunk)
                adv = advantages[chunk][:, None]  # broadcast over decisions
                with span("placers.score", telemetry=tel):
                    logp, entropy = self.agent.evaluate(sub.internal)
                ratio = (logp - Tensor(sub.old_logp)).exp()
                clipped = ratio.clip(1.0 - cfg.clip_ratio, 1.0 + cfg.clip_ratio)
                surrogate = minimum(ratio * adv, clipped * adv)
                surrogate_mean = surrogate.mean()
                loss = -surrogate_mean - cfg.entropy_coef * entropy.mean()

                self.optimizer.zero_grad()
                with span("nn.backward", telemetry=tel):
                    loss.backward()
                with span("nn.clip_grad", telemetry=tel):
                    norm = clip_grad_norm(self.agent.parameters(), cfg.grad_clip_norm)
                with span("nn.optim_step", telemetry=tel):
                    self.optimizer.step()

                stats.policy_loss += -float(surrogate_mean.data)
                stats.entropy += float(entropy.data.mean())
                stats.clip_fraction += float(
                    np.mean(np.abs(ratio.data - 1.0) > cfg.clip_ratio)
                )
                stats.approx_kl += float(np.mean(sub.old_logp - logp.data))
                stats.grad_norm += norm
                stats.passes += 1
        if stats.passes:
            stats.policy_loss /= stats.passes
            stats.entropy /= stats.passes
            stats.clip_fraction /= stats.passes
            stats.approx_kl /= stats.passes
            stats.grad_norm /= stats.passes
        return stats
