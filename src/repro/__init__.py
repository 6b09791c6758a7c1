"""Mars: Accelerated Device Placement Optimization with Contrastive Learning.

A complete, self-contained reproduction of Lan, Chen & Li (ICPP 2021):
a reinforcement-learning device placer built from a DGI-pre-trained GCN
encoder and a segment-level seq2seq placer, together with every substrate
it needs — workload graph generators, a multi-GPU machine simulator, a
NumPy autodiff framework, baseline agents, and the full experiment harness.

Quickstart::

    from repro import build_gnmt, ClusterSpec, optimize_placement, fast_profile

    graph = build_gnmt(scale=0.25)
    result = optimize_placement(graph, ClusterSpec.default(), "mars", fast_profile())
    print(result.final_runtime, result.history.best_placement)
"""

from repro.config import MarsConfig, fast_profile, paper_profile, with_seed
from repro.core import (
    GrouperPlacerAgent,
    OptimizationResult,
    balanced_chain_placement,
    build_encoder_placer_agent,
    build_grouper_placer_agent,
    build_mars_agent,
    generalization_run,
    gpu_only_placement,
    human_expert_placement,
    optimize_placement,
    transfer_agent,
)
from repro.graph import CompGraph, FeatureExtractor, OpNode
from repro.sim import ClusterSpec, MeasurementProtocol, Placement, PlacementEnv
from repro.workloads import (
    build_bert,
    build_gnmt,
    build_inception_v3,
    build_seq2seq,
    build_transformer,
    build_vgg16,
    get_workload,
    list_workloads,
)

__version__ = "1.0.0"

__all__ = [
    "MarsConfig",
    "fast_profile",
    "paper_profile",
    "with_seed",
    "GrouperPlacerAgent",
    "OptimizationResult",
    "balanced_chain_placement",
    "build_encoder_placer_agent",
    "build_grouper_placer_agent",
    "build_mars_agent",
    "generalization_run",
    "gpu_only_placement",
    "human_expert_placement",
    "optimize_placement",
    "transfer_agent",
    "CompGraph",
    "FeatureExtractor",
    "OpNode",
    "ClusterSpec",
    "MeasurementProtocol",
    "Placement",
    "PlacementEnv",
    "build_bert",
    "build_gnmt",
    "build_inception_v3",
    "build_seq2seq",
    "build_transformer",
    "build_vgg16",
    "get_workload",
    "list_workloads",
    "__version__",
]
