"""End-to-end placement optimization — the library's main entry point.

``optimize_placement`` builds the requested agent, optionally pre-trains
its encoder with contrastive learning, trains it jointly with PPO against
the measurement environment, and reports the best placement's long-run
per-step time (the paper's evaluation metric).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Optional

import numpy as np

from repro.config import MarsConfig, fast_profile
from repro.core.runstate import RunStateManager, latest_snapshot, load_run_state
from repro.core.agents import (
    build_encoder_placer_agent,
    build_mars_agent,
    build_placer_study_agent,
)
from repro.core.grouper_placer import build_grouper_placer_agent
from repro.graph import CompGraph, FeatureExtractor
from repro.rl.policy import PolicyAgent
from repro.rl.trainer import JointTrainer, SearchHistory
from repro.sim.cluster import ClusterSpec
from repro.sim.env import PlacementEnv
from repro.sim.measurement import MeasurementProtocol
from repro.telemetry import Telemetry, use_telemetry
from repro.telemetry.tracing import span
from repro.utils.logging import get_logger

logger = get_logger("repro.core.search")


@dataclass
class OptimizationResult:
    """Everything an experiment needs from one agent-training run."""

    workload: str
    agent_kind: str
    history: SearchHistory
    final_runtime: float  # 1000-step evaluation of the best placement
    agent: PolicyAgent
    env: PlacementEnv

    @property
    def training_hours(self) -> float:
        """Simulated agent-training time (the Fig. 8 quantity)."""
        return self.history.sim_clock / 3600.0


AGENT_BUILDERS: Dict[str, Callable] = {}


def _register(name: str):
    def deco(fn):
        AGENT_BUILDERS[name] = fn
        return fn

    return deco


@_register("mars")
def _mars(graph, cluster, config, fx):
    agent = build_mars_agent(graph, cluster, config, feature_extractor=fx)
    pretrain_clock = agent.pretrain(config.pretrain, seed=config.seed)
    return agent, pretrain_clock


@_register("mars_no_pretrain")
def _mars_np(graph, cluster, config, fx):
    return build_mars_agent(graph, cluster, config, feature_extractor=fx), 0.0


@_register("encoder_placer")
def _gdp(graph, cluster, config, fx):
    return build_encoder_placer_agent(graph, cluster, config, feature_extractor=fx), 0.0


@_register("grouper_placer")
def _hier(graph, cluster, config, fx):
    return build_grouper_placer_agent(graph, cluster, config, feature_extractor=fx), 0.0


for _placer_kind in ("seq2seq", "segment_seq2seq", "transformer_xl", "mlp"):

    def _make(placer_kind):
        def build(graph, cluster, config, fx):
            agent = build_placer_study_agent(
                graph, cluster, config, placer_kind, feature_extractor=fx
            )
            pretrain_clock = agent.pretrain(config.pretrain, seed=config.seed)
            # Table 1 trains the placers on *fixed* representations from the
            # trained encoder, isolating the placer design.
            agent.freeze_encoder = True
            return agent, pretrain_clock

        return build

    AGENT_BUILDERS[f"study:{_placer_kind}"] = _make(_placer_kind)


def build_agent(
    kind: str,
    graph: CompGraph,
    cluster: ClusterSpec,
    config: MarsConfig,
    feature_extractor: Optional[FeatureExtractor] = None,
):
    """Build agent ``kind``; returns ``(agent, simulated_pretrain_seconds)``."""
    try:
        builder = AGENT_BUILDERS[kind]
    except KeyError as exc:
        raise KeyError(f"unknown agent kind {kind!r}; options: {sorted(AGENT_BUILDERS)}") from exc
    return builder(graph, cluster, config, feature_extractor)


def optimize_placement(
    graph: CompGraph,
    cluster: Optional[ClusterSpec] = None,
    agent_kind: str = "mars",
    config: Optional[MarsConfig] = None,
    protocol: Optional[MeasurementProtocol] = None,
    env: Optional[PlacementEnv] = None,
    feature_extractor: Optional[FeatureExtractor] = None,
    telemetry: Optional[Telemetry] = None,
    snapshot_dir: Optional[str] = None,
    resume: bool = False,
) -> OptimizationResult:
    """Find a placement for ``graph`` with agent ``agent_kind``.

    Telemetry: the run records into ``telemetry`` if given, else into the
    ambient session; open a file-backed one with
    :func:`~repro.telemetry.start_run` (``docs/observability.md``).

    Crash safety: with ``snapshot_dir`` set, the run writes resumable
    snapshots every ``config.snapshot.snapshot_every`` iterations and on
    graceful shutdown; with ``resume=True`` the newest complete snapshot
    under ``snapshot_dir`` is restored first — the resumed run replays
    the remaining iterations bit-identically to an uninterrupted one
    (docs/architecture.md §"Run state & resume").
    """
    cluster = cluster or ClusterSpec.default()
    config = config or fast_profile()

    with use_telemetry(telemetry) as tel:
        env = env or PlacementEnv(
            graph,
            cluster,
            protocol=protocol,
            batch=config.eval_batch,
        )
        snapshot = None
        if resume and snapshot_dir:
            snap_path = latest_snapshot(snapshot_dir)
            if snap_path is None:
                logger.info(
                    "no snapshot to resume under %s — starting fresh", snapshot_dir
                )
            else:
                snapshot = load_run_state(snap_path)
        if snapshot is not None:
            if snapshot["agent_kind"] != agent_kind:
                raise ValueError(
                    f"snapshot at {snapshot['path']!r} holds a "
                    f"{snapshot['agent_kind']!r} run, requested {agent_kind!r}"
                )
            # Lazy import (checkpoint.py imports this module).
            from repro.core.checkpoint import load_agent

            agent, _meta = load_agent(
                os.path.join(snapshot["path"], "agent"),
                graph,
                cluster,
                config,
                feature_extractor,
            )
            history = snapshot["history"]
            done = len(history.records)
            pretrain_clock = history.pretrain_clock
            trainer = JointTrainer(
                agent,
                env,
                replace(
                    config.trainer,
                    iterations=max(0, config.trainer.iterations - done),
                ),
                health=config.health,
            )
            trainer.load_state_dict(snapshot["trainer"])
            env.load_state_dict(snapshot["env"])
            tel.emit(
                "resume",
                iteration=done,
                path=snapshot["path"],
                samples=int(history.total_samples),
                sim_clock=float(history.sim_clock),
            )
            tel.update_manifest(
                resumed_from=snapshot["path"], resumed_at_iteration=done
            )
            logger.info(
                "resumed %s/%s from %s (iteration %d, %d samples)",
                graph.name,
                agent_kind,
                snapshot["path"],
                done,
                history.total_samples,
            )
        else:
            agent, pretrain_clock = build_agent(
                agent_kind, graph, cluster, config, feature_extractor
            )
            history = SearchHistory(pretrain_clock=pretrain_clock)
            trainer = JointTrainer(
                agent, env, config.trainer, health=config.health
            )
        run_state = None
        if snapshot_dir:
            run_state = RunStateManager(
                snapshot_dir,
                config.snapshot,
                agent_kind=agent_kind,
                workload=graph.name,
                mars_config=config,
            )
        # Trace root for the whole search: trainer.iteration spans and
        # the env spans below them all join this trace (only when the
        # session writes event files — in-memory runs record nothing).
        with span(
            "search.optimize",
            telemetry=tel,
            new_trace=True,
            workload=graph.name,
            agent_kind=agent_kind,
        ):
            history = trainer.train(history, run_state=run_state)
            if history.halt_reason is not None and not history.halt_reason.startswith(
                "signal"
            ):
                logger.warning(
                    "%s/%s halted by health watchdog: %s",
                    graph.name,
                    agent_kind,
                    history.halt_reason,
                )

            if history.best_placement is None:
                logger.warning(
                    "%s/%s never found a valid placement", graph.name, agent_kind
                )
                final = float("nan")
            else:
                final = env.final_run(history.best_placement)
    return OptimizationResult(
        workload=graph.name,
        agent_kind=agent_kind,
        history=history,
        final_runtime=final,
        agent=agent,
        env=env,
    )
