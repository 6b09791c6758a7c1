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
from repro.sim.env import BatchEvalConfig
from repro.telemetry import HealthConfig


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
class MarsConfig:
    """Everything needed to build and train one agent."""

    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    placer: PlacerConfig = field(default_factory=PlacerConfig)
    pretrain: PretrainConfig = field(default_factory=PretrainConfig)
    grouper: GrouperConfig = field(default_factory=GrouperConfig)
    trainer: TrainerConfig = field(default_factory=TrainerConfig)
    # Telemetry is not configured here: a search records into the ambient
    # session (in memory unless a caller opened one with
    # ``repro.telemetry.start_run``; docs/observability.md).

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
    everything else — trainer, health, eval_batch — from
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
