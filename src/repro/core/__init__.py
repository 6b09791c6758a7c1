"""The paper's agents and baselines, ready to train.

* :func:`build_mars_agent` — GCN encoder (DGI pre-trainable) + segment-level
  seq2seq placer (the paper's contribution);
* :func:`build_encoder_placer_agent` — GraphSAGE + Transformer-XL (GDP [33]);
* :class:`GrouperPlacerAgent` — MLP grouper + seq2seq placer (Hierarchical
  Planner [20]);
* static baselines — Human Expert, GPU-Only, and a balanced topological chain;
* :func:`optimize_placement` — the end-to-end search entry point;
* generalization utilities for Table 3.
"""

from repro.core.agents import (
    EncoderPlacerPolicy,
    build_mars_agent,
    build_encoder_placer_agent,
    build_placer_study_agent,
)
from repro.core.grouper_placer import GrouperPlacerAgent, build_grouper_placer_agent
from repro.core.baselines import (
    gpu_only_placement,
    human_expert_placement,
    balanced_chain_placement,
)
from repro.core.search import optimize_placement, OptimizationResult
from repro.core.runstate import (
    RunStateManager,
    latest_snapshot,
    load_run_state,
    history_to_json,
    install_signal_handlers,
    restore_signal_handlers,
    halt_requested,
    clear_halt,
)
from repro.core.generalize import transfer_agent, generalization_run
from repro.core.checkpoint import save_agent, load_agent, greedy_placement
from repro.core.annealing import AnnealingConfig, AnnealingResult, anneal_placement

__all__ = [
    "EncoderPlacerPolicy",
    "build_mars_agent",
    "build_encoder_placer_agent",
    "build_placer_study_agent",
    "GrouperPlacerAgent",
    "build_grouper_placer_agent",
    "gpu_only_placement",
    "human_expert_placement",
    "balanced_chain_placement",
    "optimize_placement",
    "OptimizationResult",
    "RunStateManager",
    "latest_snapshot",
    "load_run_state",
    "history_to_json",
    "install_signal_handlers",
    "restore_signal_handlers",
    "halt_requested",
    "clear_halt",
    "transfer_agent",
    "generalization_run",
    "save_agent",
    "load_agent",
    "greedy_placement",
    "AnnealingConfig",
    "AnnealingResult",
    "anneal_placement",
]
