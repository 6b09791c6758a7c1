"""The policy-agent interface the RL machinery trains.

A policy agent owns whatever networks it needs (encoder + placer, or
grouper + placer) and exposes two operations:

* :meth:`PolicyAgent.sample` — draw ``n`` placements (gradient-free), and
* :meth:`PolicyAgent.evaluate` — re-score stored decisions differentiably.

:meth:`PolicyAgent.bind` splits an agent in two: its modules are the
*parameters*, and the graph's features, adjacency and op count are a
*graph binding*. Binding a new graph builds a new agent over the same
module objects, with no initialization and no disk read; the serving
registry loads each checkpoint once and binds every graph to it.

Decisions are *factored*: a sample consists of K categorical decisions
(one per op for encoder-placer agents; one per op plus one per group for
the grouper-placer). PPO operates on per-decision ratios, which is far
more stable than a single joint ratio over hundreds of ops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.nn import Module, Tensor


@dataclass
class AgentRollout:
    """A batch of sampled placements plus what is needed to re-score them."""

    placements: np.ndarray  # (B, num_ops) device index per op, for the env
    internal: Dict[str, np.ndarray]  # per-decision actions, agent-specific
    old_logp: np.ndarray  # (B, K) log-probs at sampling time (detached)

    @property
    def batch_size(self) -> int:
        return self.placements.shape[0]

    def subset(self, idx: np.ndarray) -> "AgentRollout":
        return AgentRollout(
            placements=self.placements[idx],
            internal={k: v[idx] for k, v in self.internal.items()},
            old_logp=self.old_logp[idx],
        )

    @staticmethod
    def concatenate(parts: list) -> "AgentRollout":
        keys = parts[0].internal.keys()
        return AgentRollout(
            placements=np.concatenate([p.placements for p in parts], axis=0),
            internal={k: np.concatenate([p.internal[k] for p in parts], axis=0) for k in keys},
            old_logp=np.concatenate([p.old_logp for p in parts], axis=0),
        )


class PolicyAgent(Module):
    """Base class for trainable placement policies."""

    num_ops: int
    num_devices: int

    @property
    def feature_dim(self) -> int:
        """Width of the node-feature matrix the agent was built over, or
        0 when the agent doesn't consume node features. Checkpoints record
        it so a load against a mismatched feature extractor fails with a
        clear error instead of a shape crash mid-forward."""
        features = getattr(self, "features", None)
        if features is None:
            return 0
        return int(features.shape[1])

    def bind(self, graph, cluster) -> "PolicyAgent":
        """This agent's modules over ``graph``/``cluster``: a new agent that
        shares them (updating one updates both), with only the per-graph
        inputs computed. Raises ``ValueError`` where the modules cannot
        serve the graph, e.g. a device count the output head was not
        sized for."""
        raise NotImplementedError  # pragma: no cover

    def check_cluster(self, cluster) -> None:
        """Raise ``ValueError`` unless ``cluster`` has this agent's device
        count, which sizes the placer's output head."""
        if cluster.num_devices != self.num_devices:
            raise ValueError(
                f"the policy places onto {self.num_devices} devices, "
                f"cluster has {cluster.num_devices}"
            )

    def sample(self, n_samples: int, rng, greedy: bool = False) -> AgentRollout:
        raise NotImplementedError  # pragma: no cover

    def evaluate(self, internal: Dict[str, np.ndarray]) -> Tuple[Tensor, Tensor]:
        """Return differentiable ``(log_probs (B,K), entropy (B,K))``."""
        raise NotImplementedError  # pragma: no cover

    def update_flops(self, batch_size: int) -> float:
        """Rough FLOPs of one evaluate+backward pass — used to model the
        agent's own compute time in the simulated training clock (Fig 8).

        A recurrent placer touches all its parameters once per op, and a
        backward pass costs about twice the forward pass.
        """
        return 6.0 * self.num_parameters() * batch_size * max(self.num_ops, 1)
