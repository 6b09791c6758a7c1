"""Configuration profiles.

``paper_profile`` mirrors Section 4.2 exactly (3x GCN-256 encoder,
segment-level seq2seq placer with 512 LSTM units and segment length 128,
1000 DGI pre-training iterations, PPO with 10 samples/policy etc.).

``fast_profile`` keeps every architectural choice but shrinks widths and
iteration counts so the full experiment harness runs on a laptop CPU in
minutes; it is the default for the benchmark suite.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from typing import Optional

from repro.rl.ppo import PPOConfig
from repro.rl.reward import RewardConfig
from repro.rl.trainer import TrainerConfig
from repro.sim.batch import BatchEvalConfig
from repro.telemetry import HealthConfig, TelemetryConfig


@dataclass
class EncoderConfig:
    kind: str = "gcn"  # "gcn" | "sage" | "identity"
    hidden_dim: int = 256
    num_layers: int = 3


@dataclass
class PlacerConfig:
    kind: str = "segment_seq2seq"  # | "seq2seq" | "transformer_xl" | "mlp"
    hidden_size: int = 512
    segment_size: int = 128
    action_embed_dim: int = 32
    # Transformer-XL specific
    model_dim: int = 128
    n_layers: int = 2
    n_heads: int = 4


@dataclass
class PretrainConfig:
    enabled: bool = True
    iterations: int = 1000
    learning_rate: float = 1e-3
    grad_clip: float = 1.0


@dataclass
class GrouperConfig:
    num_groups: int = 64
    hidden_size: int = 64


@dataclass
class SnapshotConfig:
    """Crash-safe run-state snapshots (``repro.core.runstate``).

    Lives here rather than next to the manager because ``MarsConfig``
    carries it and ``repro.config`` must stay importable without pulling
    in ``repro.core``. ``snapshot_every=0`` writes only the terminal and
    on-halt snapshots; ``keep_last=0`` retains every snapshot.
    """

    snapshot_every: int = 5  # snapshot every N policy iterations
    keep_last: int = 2  # newest complete snapshots retained per run


@dataclass
class DistribConfig:
    """Distributed actor–learner training (``repro.distrib``).

    Lives here rather than in the package because ``MarsConfig`` carries
    it and ``repro.config`` must stay importable without pulling in
    ``repro.distrib`` (the ``SnapshotConfig`` precedent). ``workers=0``
    keeps the single-process :class:`~repro.rl.trainer.JointTrainer`
    path; ``workers>0`` runs that many rollout-worker processes feeding
    the same trainer's loop through bounded per-worker sample queues,
    with weights broadcast through a versioned variable store after every
    update. Each worker batch holds the trainer's ``samples_per_policy``
    placements, so one consumed batch is one policy iteration. The
    heartbeat, poll and shutdown timings are constants of
    ``repro.distrib.learner`` (see docs/architecture.md §"Distributed
    training").
    """

    #: Rollout-worker processes. 0 disables the subsystem entirely.
    workers: int = 0
    #: Bound of each worker's sample queue, in batches. Full queues
    #: apply backpressure: a worker blocks (heartbeating) instead of
    #: racing arbitrarily far ahead of the learner.
    queue_capacity: int = 4
    #: Drop batches sampled more than this many policy versions behind
    #: the latest broadcast (``None``: consume everything). Dropped
    #: batches do not count against the sample budget.
    max_staleness: Optional[int] = 4
    #: Restarts allowed per worker slot before it is declared lost; the
    #: run degrades to the surviving workers (and halts if none remain).
    max_worker_restarts: int = 2

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")
        if self.queue_capacity < 1:
            raise ValueError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}"
            )
        if self.max_staleness is not None and self.max_staleness < 0:
            raise ValueError(
                f"max_staleness must be >= 0 or None, got {self.max_staleness}"
            )
        if self.max_worker_restarts < 0:
            raise ValueError(
                f"max_worker_restarts must be >= 0, got {self.max_worker_restarts}"
            )


@dataclass
class MarsConfig:
    """Everything needed to build and train one agent."""

    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    placer: PlacerConfig = field(default_factory=PlacerConfig)
    pretrain: PretrainConfig = field(default_factory=PretrainConfig)
    grouper: GrouperConfig = field(default_factory=GrouperConfig)
    trainer: TrainerConfig = field(default_factory=TrainerConfig)
    # Observability (docs/observability.md): metrics always accumulate
    # in memory when enabled; set ``telemetry.run_dir`` to also write a
    # JSONL event log + manifest per ``optimize_placement`` call, or
    # ``telemetry.enabled = False`` to turn every hook into a no-op.
    telemetry: TelemetryConfig = field(default_factory=TelemetryConfig)
    # Training-health watchdog (docs/observability.md §"Alert taxonomy"):
    # sliding-window detectors over the trainer's update/iteration streams
    # (NaN guard, entropy collapse, KL blow-up, reward plateau, invalid-
    # placement-rate spike). ``action`` picks log/warn/halt; the runner
    # exposes it as ``--health``/``--no-health``.
    health: HealthConfig = field(default_factory=HealthConfig)
    # Placement evaluation (docs/architecture.md §2): the bound on the
    # environment's result cache.
    eval_batch: BatchEvalConfig = field(default_factory=BatchEvalConfig)
    incremental: None = None  # read by nothing; the benchmarks/e2e harness passes it on
    # Crash-safe resumable runs (docs/architecture.md §"Run state &
    # resume"): cadence and retention of run-state snapshots, used when
    # ``optimize_placement`` is given a ``snapshot_dir`` (the runner's
    # ``--snapshot-dir``/``--snapshot-every``/``--resume``).
    snapshot: SnapshotConfig = field(default_factory=SnapshotConfig)
    # Distributed actor–learner training (docs/architecture.md
    # §"Distributed training"): ``workers>0`` fans rollouts out to that
    # many worker processes feeding the central learner; the runner
    # exposes it as ``--workers``. ``workers=0`` (the default) is the
    # single-process path, bit-for-bit unchanged.
    distrib: DistribConfig = field(default_factory=DistribConfig)
    seed: int = 0


def paper_profile() -> MarsConfig:
    """The configuration of Section 4.2 (slow on a CPU-only machine)."""
    return MarsConfig(
        encoder=EncoderConfig(hidden_dim=256, num_layers=3),
        placer=PlacerConfig(hidden_size=512, segment_size=128),
        pretrain=PretrainConfig(iterations=1000),
        trainer=TrainerConfig(
            iterations=100,
            samples_per_policy=10,
            update_min_samples=20,
            ppo=PPOConfig(
                clip_ratio=0.2,
                entropy_coef=1e-3,
                learning_rate=3e-4,
                epochs=3,
                minibatches=4,
                grad_clip_norm=1.0,
            ),
            reward=RewardConfig(transform="neg_sqrt", ema_mu=0.99),
        ),
    )


def fast_profile(seed: int = 0, iterations: int = 40) -> MarsConfig:
    """Laptop-scale profile preserving the paper's architecture and
    training structure at reduced widths and budgets."""
    return MarsConfig(
        encoder=EncoderConfig(hidden_dim=48, num_layers=3),
        placer=PlacerConfig(
            hidden_size=48,
            segment_size=32,
            action_embed_dim=12,
            model_dim=48,
            n_layers=2,
            n_heads=4,
        ),
        pretrain=PretrainConfig(iterations=150),
        grouper=GrouperConfig(num_groups=24, hidden_size=32),
        trainer=TrainerConfig(
            iterations=iterations,
            samples_per_policy=10,
            update_min_samples=20,
            # Fewer, larger updates with a hotter learning rate and
            # batch-normalized advantages — converges in tens of policy
            # iterations instead of the paper's hundreds.
            ppo=PPOConfig(epochs=1, minibatches=2, learning_rate=1e-3),
            reward=RewardConfig(
                transform="neg_sqrt", ema_mu=0.99, advantage_normalization=True
            ),
            log_every=0,
            seed=seed,
        ),
        seed=seed,
    )


def config_to_echo(config: MarsConfig) -> dict:
    """The architecture-defining slice of a config, as plain JSON data.

    This is what ``save_agent`` records in the checkpoint sidecar: the
    sub-configs that size the agent's networks (encoder, placer, grouper)
    plus the build seed. ``config_from_echo`` inverts it, so a checkpoint
    can be rebuilt without knowing which profile trained it.
    """
    return {
        "encoder": asdict(config.encoder),
        "placer": asdict(config.placer),
        "grouper": asdict(config.grouper),
        "seed": config.seed,
    }


def _dataclass_from_echo(cls, doc: dict):
    """Build ``cls`` from ``doc``, ignoring unknown keys (a sidecar written
    by a newer version may carry fields this version doesn't know)."""
    known = {f.name for f in fields(cls)}
    return cls(**{k: v for k, v in doc.items() if k in known})


def config_from_echo(echo: dict, base: Optional[MarsConfig] = None) -> MarsConfig:
    """Rebuild a :class:`MarsConfig` from a sidecar's ``config`` echo.

    Architecture fields (encoder/placer/grouper, seed) come from the echo;
    everything else — trainer, telemetry, health, eval_batch — from
    ``base`` (default: :func:`fast_profile`), since those don't affect
    parameter shapes.
    """
    base = base if base is not None else fast_profile()
    return replace(
        base,
        encoder=_dataclass_from_echo(EncoderConfig, echo.get("encoder", {})),
        placer=_dataclass_from_echo(PlacerConfig, echo.get("placer", {})),
        grouper=_dataclass_from_echo(GrouperConfig, echo.get("grouper", {})),
        seed=echo.get("seed", base.seed),
    )


def with_seed(config: MarsConfig, seed: int) -> MarsConfig:
    """A copy of ``config`` with every seed field set to ``seed``."""
    return replace(
        config,
        seed=seed,
        trainer=replace(config.trainer, seed=seed),
    )
