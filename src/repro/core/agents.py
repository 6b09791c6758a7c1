"""Encoder-placer policy agents (Mars and the GDP baseline).

Both share :class:`EncoderPlacerPolicy`: a graph encoder produces node
representations which a placer turns into per-op device choices; the two
are trained jointly (Section 3.4). They differ in which encoder/placer is
plugged in and whether the encoder is pre-trained with contrastive
learning.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.config import MarsConfig
from repro.gnn import GCNEncoder, GraphSAGEEncoder, pretrain_encoder
from repro.graph import CompGraph, FeatureExtractor, adjacency_matrix, normalized_adjacency
from repro.nn import Module, Tensor, no_grad
from repro.placers import MLPPlacer, SegmentSeq2SeqPlacer, TransformerXLPlacer
from repro.rl.policy import AgentRollout, PolicyAgent
from repro.rl.trainer import AGENT_DEVICE_FLOPS, AGENT_PASS_OVERHEAD
from repro.sim.cluster import ClusterSpec
from repro.telemetry.tracing import span
from repro.utils.rng import new_rng


class _IdentityEncoder(Module):
    """Pass-through encoder (ablation: placer sees raw features)."""

    def __init__(self, in_dim: int):
        super().__init__()
        self.in_dim = in_dim
        self.out_dim = in_dim

    def forward(self, x, adj) -> Tensor:
        return x if isinstance(x, Tensor) else Tensor(x)


class EncoderPlacerPolicy(PolicyAgent):
    """Joint encoder+placer policy over one workload graph."""

    def __init__(
        self,
        graph: CompGraph,
        cluster: ClusterSpec,
        encoder: Module,
        placer,
        features: Optional[np.ndarray] = None,
        feature_extractor: Optional[FeatureExtractor] = None,
    ):
        super().__init__()
        self.graph = graph
        self.cluster = cluster
        self.num_ops = graph.num_nodes
        self.num_devices = cluster.num_devices
        self.feature_extractor = feature_extractor or FeatureExtractor()
        self.features = (
            features if features is not None else self.feature_extractor(graph)
        )
        self.encoder = encoder
        self.placer = placer
        if isinstance(encoder, GraphSAGEEncoder):
            self.adj = adjacency_matrix(graph)
        else:
            self.adj = normalized_adjacency(graph)
        self.pretrain_result = None
        #: When True, ``parameters()`` exposes only the placer — the
        #: encoder's representations are fixed, as in the paper's placer
        #: study (Table 1).
        self.freeze_encoder = False

    def bind(self, graph: CompGraph, cluster: ClusterSpec) -> "EncoderPlacerPolicy":
        self.check_cluster(cluster)
        bound = EncoderPlacerPolicy(
            graph,
            cluster,
            self.encoder,
            self.placer,
            feature_extractor=self.feature_extractor,
        )
        bound.freeze_encoder = self.freeze_encoder
        return bound

    def parameters(self):
        if self.freeze_encoder:
            return self.placer.parameters()
        return super().parameters()

    # ------------------------------------------------------------------
    def node_representations(self) -> Tensor:
        if self.freeze_encoder:
            with no_grad():
                reps = self.encoder(self.features, self.adj)
            return reps.detach()
        return self.encoder(self.features, self.adj)

    def sample(self, n_samples: int, rng, greedy: int = 0) -> AgentRollout:
        rng = new_rng(rng)
        with no_grad():
            with span("gnn.encode"):
                reps = self.node_representations()
            with span("placers.decode"):
                out = self.placer.run(reps, n_samples=n_samples, rng=rng, greedy=greedy)
        return AgentRollout(
            placements=out.actions,
            internal={"placement": out.actions},
            old_logp=out.log_probs.data.copy(),
        )

    def evaluate(self, internal: Dict[str, np.ndarray]) -> Tuple[Tensor, Tensor]:
        reps = self.node_representations()
        out = self.placer.run(reps, actions=internal["placement"])
        return out.log_probs, out.entropy

    # ------------------------------------------------------------------
    def pretrain(self, config, seed=None) -> float:
        """DGI pre-training of the encoder (paper Section 3.2).

        Returns the *simulated* wall-clock seconds the pre-training would
        cost — contrastive learning never touches the measurement
        environment, so this is pure (cheap) agent compute.
        """
        if not config.enabled:
            return 0.0
        self.pretrain_result = pretrain_encoder(
            self.encoder,
            self.features,
            self.adj,
            iterations=config.iterations,
            lr=config.learning_rate,
            grad_clip=config.grad_clip,
            seed=seed,
        )
        iters = self.pretrain_result.iterations
        per_iter = (
            6.0 * self.encoder.num_parameters() * self.num_ops * 2 / AGENT_DEVICE_FLOPS
            + AGENT_PASS_OVERHEAD
        )
        return iters * per_iter


# ----------------------------------------------------------------------
# Factories
# ----------------------------------------------------------------------
def _make_encoder(kind: str, in_dim: int, hidden: int, layers: int, rng):
    if kind == "gcn":
        return GCNEncoder(in_dim, hidden_dim=hidden, num_layers=layers, rng=rng)
    if kind == "sage":
        return GraphSAGEEncoder(in_dim, hidden_dim=hidden, num_layers=layers, rng=rng)
    if kind == "identity":
        return _IdentityEncoder(in_dim)
    raise ValueError(f"unknown encoder kind {kind!r}")


def _make_placer(kind: str, in_dim: int, num_devices: int, cfg, rng):
    if kind == "segment_seq2seq":
        return SegmentSeq2SeqPlacer(
            in_dim,
            num_devices,
            hidden_size=cfg.hidden_size,
            segment_size=cfg.segment_size,
            action_embed_dim=cfg.action_embed_dim,
            rng=rng,
        )
    if kind == "seq2seq":
        return SegmentSeq2SeqPlacer(
            in_dim,
            num_devices,
            hidden_size=cfg.hidden_size,
            segment_size=None,
            action_embed_dim=cfg.action_embed_dim,
            rng=rng,
        )
    if kind == "transformer_xl":
        return TransformerXLPlacer(
            in_dim,
            num_devices,
            model_dim=cfg.model_dim,
            n_layers=cfg.n_layers,
            n_heads=cfg.n_heads,
            segment_size=cfg.segment_size,
            rng=rng,
        )
    if kind == "mlp":
        return MLPPlacer(in_dim, num_devices, hidden_size=cfg.hidden_size, rng=rng)
    raise ValueError(f"unknown placer kind {kind!r}")


def _build_agent(
    graph: CompGraph,
    cluster: ClusterSpec,
    config: MarsConfig,
    encoder_kind: str,
    placer_kind: str,
    feature_extractor: Optional[FeatureExtractor],
) -> EncoderPlacerPolicy:
    """An encoder + placer policy, the encoder drawn from the seed first."""
    rng = new_rng(config.seed)
    fx = feature_extractor or FeatureExtractor()
    encoder = _make_encoder(
        encoder_kind, fx.dim, config.encoder.hidden_dim, config.encoder.num_layers, rng
    )
    placer = _make_placer(placer_kind, encoder.out_dim, cluster.num_devices, config.placer, rng)
    return EncoderPlacerPolicy(graph, cluster, encoder, placer, feature_extractor=fx)


def build_mars_agent(
    graph: CompGraph,
    cluster: ClusterSpec,
    config: MarsConfig,
    feature_extractor: Optional[FeatureExtractor] = None,
) -> EncoderPlacerPolicy:
    """Mars: GCN encoder + segment-level seq2seq placer."""
    return _build_agent(
        graph, cluster, config, config.encoder.kind, config.placer.kind, feature_extractor
    )


def build_encoder_placer_agent(
    graph: CompGraph,
    cluster: ClusterSpec,
    config: MarsConfig,
    feature_extractor: Optional[FeatureExtractor] = None,
) -> EncoderPlacerPolicy:
    """The GDP baseline [33]: GraphSAGE encoder + Transformer-XL placer."""
    return _build_agent(graph, cluster, config, "sage", "transformer_xl", feature_extractor)


def build_placer_study_agent(
    graph: CompGraph,
    cluster: ClusterSpec,
    config: MarsConfig,
    placer_kind: str,
    feature_extractor: Optional[FeatureExtractor] = None,
) -> EncoderPlacerPolicy:
    """Table 1 agents: a (pre-trainable) GCN encoder + the placer under study."""
    return _build_agent(
        graph, cluster, config, config.encoder.kind, placer_kind, feature_extractor
    )
