"""Saving and restoring trained agents.

Checkpoints are ``.npz`` parameter archives plus a JSON sidecar recording
the agent kind and workload, so a placement policy trained once can be
reloaded and queried (or fine-tuned on another workload) later. The
sidecar also echoes the architecture slice of the training config
(encoder/placer/grouper dims, seed) and the feature dimension the agent
was built over, which is what lets the serving layer (``repro.serve``)
rebuild agents from a bare checkpoint directory.

Both files are written atomically (temp file + ``os.replace``): a crash
mid-save leaves the previous checkpoint intact, never a truncated one —
required by the hot-reloading :class:`repro.serve.PolicyRegistry`.
"""

from __future__ import annotations

import json
from typing import Optional, Tuple

import numpy as np

from repro.config import MarsConfig, config_from_echo, config_to_echo
from repro.core.search import build_agent
from repro.graph import CompGraph, FeatureExtractor
from repro.rl.policy import PolicyAgent
from repro.sim.cluster import ClusterSpec
from repro.utils.serialization import load_state_dict, save_state_dict, write_json_atomic


def save_agent(
    path: str,
    agent: PolicyAgent,
    agent_kind: str,
    workload: str = "",
    config: Optional[MarsConfig] = None,
) -> None:
    """Write ``path.npz`` (parameters) and ``path.json`` (metadata).

    Pass the ``config`` the agent was built with to echo its architecture
    fields into the sidecar — ``load_agent(..., config=None)`` and the
    serving registry then rebuild the agent without further information.
    Both writes are atomic; the sidecar is written last, so a sidecar on
    disk always describes a complete parameter archive.
    """
    save_state_dict(path, agent.state_dict())
    meta = {
        "agent_kind": agent_kind,
        "workload": workload,
        "num_ops": agent.num_ops,
        "num_devices": agent.num_devices,
        "num_parameters": agent.num_parameters(),
        "feature_dim": agent.feature_dim,
    }
    if config is not None:
        meta["config"] = config_to_echo(config)
    write_json_atomic(path + ".json", meta, indent=2)


def load_agent(
    path: str,
    graph: CompGraph,
    cluster: ClusterSpec,
    config: Optional[MarsConfig] = None,
    feature_extractor: Optional[FeatureExtractor] = None,
) -> Tuple[PolicyAgent, dict]:
    """Rebuild the agent recorded at ``path`` over ``graph``.

    The target graph may differ from the training graph (transfer); only
    the device count must match, since the placer's output head is sized
    by it, and the feature dimension must match the target extractor,
    since the encoder's input layer is sized by it.

    With ``config=None`` the architecture is rebuilt from the sidecar's
    config echo (checkpoints written before the echo existed require an
    explicit config).
    """
    with open(path + ".json") as fh:
        meta = json.load(fh)
    if meta["num_devices"] != cluster.num_devices:
        raise ValueError(
            f"checkpoint was trained for {meta['num_devices']} devices, "
            f"cluster has {cluster.num_devices}"
        )
    if config is None:
        echo = meta.get("config")
        if echo is None:
            raise ValueError(
                f"checkpoint {path!r} has no config echo in its sidecar; "
                "pass the MarsConfig it was trained with explicitly"
            )
        config = config_from_echo(echo)
    fx = feature_extractor or FeatureExtractor()
    saved_dim = meta.get("feature_dim")
    if saved_dim and saved_dim != fx.dim:
        raise ValueError(
            f"checkpoint {path!r} was built over {saved_dim}-dim node "
            f"features, but the target feature extractor produces "
            f"{fx.dim}-dim features — encoder input shapes would not "
            "match; load with the extractor used at training time"
        )
    kind = meta["agent_kind"]
    # Pre-training is skipped on load: the checkpoint already carries the
    # (possibly pre-trained) encoder weights.
    load_kind = "mars_no_pretrain" if kind == "mars" else kind
    if load_kind.startswith("study:"):
        from dataclasses import replace

        config = replace(config, pretrain=replace(config.pretrain, enabled=False))
    agent, _ = build_agent(load_kind, graph, cluster, config, fx)
    agent.load_state_dict(load_state_dict(path))
    return agent, meta


def greedy_placement(agent: PolicyAgent, env) -> np.ndarray:
    """The policy's argmax placement, resolved against the environment's
    constraints. Useful for deploying a trained agent without sampling."""
    rollout = agent.sample(1, np.random.default_rng(0), greedy=True)
    return env.resolve(rollout.placements[0]).devices
