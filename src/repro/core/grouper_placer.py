"""The grouper-placer baseline (Hierarchical Planner, Mirhoseini et al. '18).

A two-layer MLP grouper assigns each op to one of ``num_groups`` groups;
group embeddings (mean op features per group) feed a seq2seq placer with
attention which assigns one device per *group*. Both networks are trained
jointly by policy gradient: the log-probability of a decision batch is the
concatenation of per-op group log-probs and per-group device log-probs.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.config import MarsConfig
from repro.graph import CompGraph, FeatureExtractor
from repro.nn import Tensor, concat, no_grad, stack
from repro.placers import MLPGrouper, SegmentSeq2SeqPlacer
from repro.rl.policy import AgentRollout, PolicyAgent
from repro.sim.cluster import ClusterSpec
from repro.utils.rng import new_rng


def group_count(num_groups: int, num_ops: int) -> int:
    """The grouper's output width over a graph of ``num_ops`` ops: the
    configured ``num_groups``, capped at the op count (at least 2)."""
    return min(num_groups, max(2, num_ops))


class GrouperPlacerAgent(PolicyAgent):
    """The hierarchical grouper-placer policy [20] over one workload graph.

    Decisions are factored into per-op group choices (MLP grouper) and
    per-group device choices (seq2seq placer with attention).
    ``num_groups`` is the configured group count; the grouper must output
    :func:`group_count` of it for ``graph``.
    """

    def __init__(
        self,
        graph: CompGraph,
        cluster: ClusterSpec,
        grouper: MLPGrouper,
        placer: SegmentSeq2SeqPlacer,
        num_groups: int = 64,
        feature_extractor: FeatureExtractor = None,
    ):
        super().__init__()
        self.graph = graph
        self.cluster = cluster
        self.num_ops = graph.num_nodes
        self.num_devices = cluster.num_devices
        self.max_groups = num_groups
        self.num_groups = group_count(num_groups, graph.num_nodes)
        if grouper.num_groups != self.num_groups:
            raise ValueError(
                f"the grouper assigns {grouper.num_groups} groups, but a "
                f"{graph.num_nodes}-op graph needs {self.num_groups} "
                f"(num_groups={num_groups})"
            )
        self.feature_extractor = feature_extractor or FeatureExtractor()
        self.features = self.feature_extractor(graph)
        self.grouper = grouper
        self.placer = placer

    def bind(self, graph: CompGraph, cluster: ClusterSpec) -> "GrouperPlacerAgent":
        self.check_cluster(cluster)
        return GrouperPlacerAgent(
            graph,
            cluster,
            self.grouper,
            self.placer,
            num_groups=self.max_groups,
            feature_extractor=self.feature_extractor,
        )

    # ------------------------------------------------------------------
    def _placements_from(self, groups: np.ndarray, devices: np.ndarray) -> np.ndarray:
        return np.take_along_axis(devices, groups, axis=1)

    def sample(self, n_samples: int, rng, greedy: int = 0) -> AgentRollout:
        rng = new_rng(rng)
        with no_grad():
            feats = Tensor(self.features)
            groups, g_logp, _ = self.grouper.run(
                feats, n_samples=n_samples, rng=rng, greedy=greedy
            )
            embeddings = MLPGrouper.group_embeddings(self.features, groups, self.num_groups)
            dev_rows: List[np.ndarray] = []
            d_logp_rows: List[np.ndarray] = []
            n_sampled = n_samples - greedy
            for b in range(n_samples):
                out = self.placer.run(
                    Tensor(embeddings[b]), n_samples=1, rng=rng, greedy=int(b >= n_sampled)
                )
                dev_rows.append(out.actions[0])
                d_logp_rows.append(out.log_probs.data[0])
        devices = np.stack(dev_rows)
        old_logp = np.concatenate([g_logp.data, np.stack(d_logp_rows)], axis=1)
        return AgentRollout(
            placements=self._placements_from(groups, devices),
            internal={"groups": groups, "devices": devices},
            old_logp=old_logp,
        )

    def evaluate(self, internal: Dict[str, np.ndarray]) -> Tuple[Tensor, Tensor]:
        groups = internal["groups"]
        devices = internal["devices"]
        feats = Tensor(self.features)
        _, g_logp, g_ent = self.grouper.run(feats, actions=groups)
        embeddings = MLPGrouper.group_embeddings(self.features, groups, self.num_groups)
        d_logps, d_ents = [], []
        for b in range(groups.shape[0]):
            out = self.placer.run(Tensor(embeddings[b]), actions=devices[b : b + 1])
            d_logps.append(out.log_probs.reshape(self.num_groups))
            d_ents.append(out.entropy.reshape(self.num_groups))
        d_logp = stack(d_logps, axis=0)
        d_ent = stack(d_ents, axis=0)
        return concat([g_logp, d_logp], axis=1), concat([g_ent, d_ent], axis=1)


def build_grouper_placer_agent(
    graph: CompGraph,
    cluster: ClusterSpec,
    config: MarsConfig,
    feature_extractor: FeatureExtractor = None,
) -> GrouperPlacerAgent:
    """Construct the grouper-placer baseline from a :class:`MarsConfig`."""
    rng = new_rng(config.seed)
    fx = feature_extractor or FeatureExtractor()
    grouper = MLPGrouper(
        fx.dim,
        group_count(config.grouper.num_groups, graph.num_nodes),
        hidden_size=config.grouper.hidden_size,
        rng=rng,
    )
    # The hierarchical model's placer is a plain seq2seq with attention
    # over the (short) group sequence.
    placer = SegmentSeq2SeqPlacer(
        fx.dim,
        cluster.num_devices,
        hidden_size=config.placer.hidden_size,
        segment_size=None,
        action_embed_dim=config.placer.action_embed_dim,
        rng=rng,
    )
    return GrouperPlacerAgent(
        graph,
        cluster,
        grouper,
        placer,
        num_groups=config.grouper.num_groups,
        feature_extractor=fx,
    )
