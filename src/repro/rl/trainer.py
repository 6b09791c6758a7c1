"""Joint RL training loop with simulated training-clock accounting.

One iteration = one policy: sample ``samples_per_policy`` placements,
measure them in the environment, convert runtimes to advantages, and run
the updater once at least ``update_min_samples`` samples are buffered
(paper: 10 samples per policy, updates over the last 20).

The *simulated training clock* is the quantity Fig. 8 reports: the
environment charges re-initialization, warm-up and measurement steps for
every placement evaluation (OOM and cutoff placements cost what they cost
on a real machine), and the agent's own forward/backward compute is added
from a FLOP estimate. Pre-training time, when used, is added by the agent
wrapper before training starts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.rl.buffer import RolloutBuffer
from repro.rl.policy import PolicyAgent
from repro.rl.ppo import PPOConfig, PPOUpdater
from repro.rl.reinforce import ReinforceConfig, ReinforceUpdater
from repro.rl.reward import RewardConfig, RewardTracker
from repro.sim.env import PlacementEnv
from repro.telemetry import Telemetry, get_telemetry
from repro.telemetry.health import HealthConfig, HealthWatchdog
from repro.telemetry.tracing import span
from repro.utils.logging import get_logger
from repro.utils.rng import new_rng

logger = get_logger("repro.rl.trainer")

#: FLOP/s assumed for the device the *agent* trains on when converting the
#: agent's own compute into simulated seconds.
AGENT_DEVICE_FLOPS = 5.0e12
AGENT_PASS_OVERHEAD = 0.02  # seconds of framework overhead per pass


@dataclass
class SearchRecord:
    """One policy iteration's worth of telemetry."""

    iteration: int
    samples_so_far: int
    runtimes: List[float]
    valid_runtimes: List[float]
    n_invalid: int
    n_truncated: int
    best_runtime: float
    baseline: float
    sim_clock: float


@dataclass
class SearchHistory:
    """Full record of one agent-training run."""

    records: List[SearchRecord] = field(default_factory=list)
    best_runtime: float = float("inf")
    best_placement: Optional[np.ndarray] = None
    sim_clock: float = 0.0  # simulated seconds (environment + agent compute)
    pretrain_clock: float = 0.0
    #: Set when the health watchdog stopped the run ("<detector>: <why>").
    halt_reason: Optional[str] = None

    @property
    def total_samples(self) -> int:
        return self.records[-1].samples_so_far if self.records else 0

    def runtime_curve(self, max_runtime: Optional[float] = None) -> "tuple[np.ndarray, np.ndarray]":
        """(sample_index, mean_valid_runtime) series — the Fig. 7 curves.

        Invalid placements and, optionally, runtimes above ``max_runtime``
        are discarded, mirroring the paper's plotting procedure.
        """
        xs, ys = [], []
        for rec in self.records:
            vals = [
                r
                for r in rec.valid_runtimes
                if max_runtime is None or r <= max_runtime
            ]
            if vals:
                xs.append(rec.samples_so_far)
                ys.append(float(np.mean(vals)))
        return np.asarray(xs), np.asarray(ys)


@dataclass
class TrainerConfig:
    iterations: int = 50
    samples_per_policy: int = 10
    update_min_samples: int = 20
    buffer_capacity: int = 20
    algorithm: str = "ppo"  # "ppo" | "reinforce"
    ppo: PPOConfig = field(default_factory=PPOConfig)
    reinforce: ReinforceConfig = field(default_factory=ReinforceConfig)
    reward: RewardConfig = field(default_factory=RewardConfig)
    early_stop_samples: Optional[int] = None  # stop after this many samples
    patience_samples: Optional[int] = None  # stop if no improvement for this many
    # Only improvements of at least this relative size reset the patience
    # counter (sub-threshold best-placement trickle should not keep an
    # essentially-converged run alive).
    patience_min_improvement: float = 0.01
    log_every: int = 10
    seed: int = 0


class JointTrainer:
    """Trains a :class:`PolicyAgent` against a :class:`PlacementEnv`."""

    def __init__(
        self,
        agent: PolicyAgent,
        env: PlacementEnv,
        config: Optional[TrainerConfig] = None,
        telemetry: Optional[Telemetry] = None,
        health: Optional[HealthConfig] = None,
    ):
        self.agent = agent
        self.env = env
        # Fresh default per trainer — a shared default instance would alias.
        self.config = config = config if config is not None else TrainerConfig()
        self._telemetry = telemetry  # None -> ambient session at train()
        # Fresh default per trainer, same aliasing rationale as config.
        self.health = health if health is not None else HealthConfig()
        self.watchdog: Optional[HealthWatchdog] = None  # built per train()
        self.rng = new_rng(config.seed)
        self.tracker = RewardTracker(config.reward)
        self.buffer = RolloutBuffer(config.buffer_capacity)
        if config.algorithm == "ppo":
            self.updater = PPOUpdater(agent, config.ppo, seed=self.rng)
        elif config.algorithm == "reinforce":
            self.updater = ReinforceUpdater(agent, config.reinforce)
        else:
            raise ValueError(f"unknown algorithm {config.algorithm!r}")
        # Loop state kept on the trainer so run-state snapshots capture it
        # mid-train. train() starts it afresh unless load_state_dict()
        # restored it; the restored watchdog windows wait in
        # `_pending_watchdog_state` for the next train() call's watchdog.
        self._samples_since_best = 0
        self._attributed_best = False  # best placement already attributed?
        self._loop_state_restored = False
        self._pending_watchdog_state: Optional[dict] = None

    # ------------------------------------------------------------------
    # Run-state snapshots (core/runstate.py)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Everything (besides agent weights and the environment) needed
        to continue training bit-identically: rng, EMA baseline, rollout
        buffer, updater/optimizer moments, loop counters, and the health
        watchdog's sliding windows."""
        return {
            "algorithm": self.config.algorithm,
            "rng_state": self.rng.bit_generator.state,
            "tracker": self.tracker.state_dict(),
            "buffer": self.buffer.state_dict(),
            "updater": self.updater.state_dict(),
            "loop": {
                "samples_since_best": int(self._samples_since_best),
                "attributed_best": bool(self._attributed_best),
            },
            # After load_state_dict (before the next train() call) the
            # watchdog windows are still pending — report those, so
            # save -> load -> save round-trips exactly.
            "watchdog": (
                self.watchdog.state_dict()
                if self.watchdog is not None
                else self._pending_watchdog_state
            ),
        }

    def load_state_dict(self, state: dict) -> None:
        algorithm = state.get("algorithm")
        if algorithm != self.config.algorithm:
            raise ValueError(
                f"snapshot was taken with algorithm {algorithm!r}, "
                f"trainer is configured for {self.config.algorithm!r}"
            )
        self.rng.bit_generator.state = state["rng_state"]
        self.tracker.load_state_dict(state["tracker"])
        self.buffer.load_state_dict(state["buffer"])
        self.updater.load_state_dict(state["updater"])
        self._pending_watchdog_state = state["watchdog"]
        self._samples_since_best = int(state["loop"]["samples_since_best"])
        self._attributed_best = bool(state["loop"]["attributed_best"])
        self._loop_state_restored = True

    def maybe_update(self, tel: Telemetry, it_index: int, watchdog) -> float:
        """Run one updater pass if enough samples are buffered.

        Merges the rollout buffer, runs the configured updater, records
        update telemetry and feeds the health watchdog. Returns the
        *simulated* seconds of agent compute this update cost (0.0 when
        the buffer was not yet ready), derived from the agent's FLOP
        estimate exactly as Fig. 8 accounts it.
        """
        cfg = self.config
        if not self.buffer.is_ready(cfg.update_min_samples):
            return 0.0
        merged, advs = self.buffer.merged()
        with span("rl.update", telemetry=tel):
            stats = self.updater.update(merged, advs)
        if cfg.algorithm == "ppo":
            pass_batch = max(1, merged.batch_size // max(cfg.ppo.minibatches, 1))
        else:  # REINFORCE: one pass over the whole merged batch
            pass_batch = merged.batch_size
        agent_seconds = stats.passes * (
            self.agent.update_flops(pass_batch) / AGENT_DEVICE_FLOPS
            + AGENT_PASS_OVERHEAD
        )
        tel.counter("trainer.updates").inc()
        tel.histogram("trainer.entropy").observe(stats.entropy)
        tel.histogram("trainer.clip_fraction").observe(stats.clip_fraction)
        tel.histogram("trainer.approx_kl").observe(stats.approx_kl)
        tel.histogram("trainer.policy_loss").observe(stats.policy_loss)
        tel.histogram("trainer.grad_norm").observe(stats.grad_norm)
        tel.emit(
            "update",
            iteration=it_index,
            policy_loss=float(stats.policy_loss),
            entropy=float(stats.entropy),
            clip_fraction=float(stats.clip_fraction),
            approx_kl=float(stats.approx_kl),
            grad_norm=float(stats.grad_norm),
            passes=int(stats.passes),
        )
        watchdog.observe_update(it_index, stats)
        return agent_seconds

    def train(
        self,
        history: Optional[SearchHistory] = None,
        run_state=None,
        source=None,
    ) -> SearchHistory:
        """Run the search; an existing ``history`` continues (fine-tuning).

        ``run_state`` is an optional :class:`repro.core.runstate.RunStateManager`:
        it snapshots the run every ``snapshot_every`` iterations and, when a
        SIGTERM/SIGINT halt was requested, after the current iteration —
        the loop then stops with ``history.halt_reason = "signal: ..."``.

        ``source`` supplies each iteration's samples (default: a
        :class:`LocalSource` on this trainer); it is the seam a source of
        samples measured elsewhere would plug into.
        """
        cfg = self.config
        tel = self._telemetry or get_telemetry()
        history = history or SearchHistory()
        if not history.records and history.sim_clock < history.pretrain_clock:
            history.sim_clock = history.pretrain_clock
        if source is None:
            source = LocalSource(self)
        samples = history.total_samples
        self.watchdog = watchdog = HealthWatchdog(self.health, telemetry=tel)
        if self._pending_watchdog_state is not None:
            watchdog.load_state_dict(self._pending_watchdog_state)
            self._pending_watchdog_state = None
        if not self._loop_state_restored:
            self._samples_since_best = 0
            self._attributed_best = False
        self._loop_state_restored = False

        for it in range(cfg.iterations):
            it_index = len(history.records)
            iter_wall_start = time.perf_counter()
            # One section per policy iteration; inside a traced run (the
            # search.optimize root) it is also the span that the
            # env.evaluate_batch span nests under.
            with span("trainer.iteration", telemetry=tel, iteration=it_index):
                rollout, results = source.next(tel)
                runtimes = [res.per_step_time for res in results]
                _, advantages = self.tracker.compute(runtimes)
                self.buffer.add(rollout, advantages)
                samples += len(results)
                tel.counter("trainer.samples").inc(len(results))
                reward_hist = tel.histogram("trainer.sample_runtime")
                for res in results:
                    if res.ok:
                        reward_hist.observe(res.per_step_time)
                if tel.writes_events:
                    for i, res in enumerate(results):
                        tel.emit(
                            "sample",
                            iteration=it_index,
                            index=i,
                            runtime=float(res.per_step_time),
                            valid=bool(res.valid),
                            truncated=bool(res.truncated),
                            advantage=float(advantages[i]),
                        )

                improved = False
                patience_bar = history.best_runtime * (1.0 - cfg.patience_min_improvement)
                for res, placement in zip(results, rollout.placements):
                    if res.ok and res.per_step_time < history.best_runtime:
                        if res.per_step_time < patience_bar:
                            improved = True
                        history.best_runtime = res.per_step_time
                        history.best_placement = placement.copy()
                        self._attributed_best = False
                if improved:
                    self._samples_since_best = 0
                else:
                    self._samples_since_best += len(results)
                if improved and history.best_placement is not None:
                    # Explain each significantly-improved best placement:
                    # one traced scheduler pass -> `attribution` event +
                    # env.critical_path_* gauges (docs/observability.md).
                    self.env.record_attribution(history.best_placement, iteration=it_index)
                    self._attributed_best = True

                agent_seconds = self.maybe_update(tel, it_index, watchdog)
                history.sim_clock += source.after_update() + agent_seconds
                sim_clock = history.sim_clock

                record = SearchRecord(
                    iteration=len(history.records),
                    samples_so_far=samples,
                    runtimes=list(runtimes),
                    valid_runtimes=[r.per_step_time for r in results if r.valid],
                    n_invalid=sum(not r.valid for r in results),
                    n_truncated=sum(r.truncated for r in results),
                    best_runtime=history.best_runtime,
                    baseline=self.tracker.baseline,
                    sim_clock=sim_clock,
                )
                history.records.append(record)

                # Wall vs simulated clock: `wall_seconds` is real time this
                # iteration cost us; `sim_clock` is what it would have cost on
                # the paper's testbed (the Fig. 8 quantity).
                iter_wall = time.perf_counter() - iter_wall_start
                tel.counter("trainer.iterations").inc()
                tel.histogram("trainer.iteration_wall_s").observe(iter_wall)
                tel.gauge("trainer.best_runtime").set(history.best_runtime)
                tel.gauge("trainer.baseline").set(record.baseline)
                tel.gauge("trainer.sim_clock").set(sim_clock)
                tel.emit(
                    "iteration",
                    iteration=it_index,
                    samples=int(samples),
                    best_runtime=float(history.best_runtime),
                    baseline=float(record.baseline),
                    n_invalid=int(record.n_invalid),
                    n_truncated=int(record.n_truncated),
                    sim_clock=float(sim_clock),
                    wall_seconds=float(iter_wall),
                )

                if cfg.log_every and (it + 1) % cfg.log_every == 0:
                    logger.info(
                        "[%s] iter %d samples %d best %.4fs baseline %.3f invalid %d",
                        self.env.graph.name,
                        it + 1,
                        samples,
                        history.best_runtime,
                        record.baseline,
                        record.n_invalid,
                    )
                watchdog.observe_iteration(
                    it_index,
                    best_runtime=history.best_runtime,
                    n_invalid=record.n_invalid,
                    n_samples=len(results),
                )
                halt_signal = None
                if run_state is not None:
                    # Snapshot when due (and always before a halt, so neither a
                    # signal nor the watchdog ever throws away finished work).
                    halt_signal = run_state.after_iteration(
                        self, history, tel, force=watchdog.halted
                    )
                if halt_signal:
                    history.halt_reason = f"signal: {halt_signal}"
                    tel.update_manifest(halted=True, halt_reason=history.halt_reason)
                    logger.warning(
                        "[%s] %s received — snapshotted after iteration %d and stopping",
                        self.env.graph.name,
                        halt_signal,
                        it + 1,
                    )
                    break
                if watchdog.halted:
                    history.halt_reason = watchdog.halt_reason
                    tel.update_manifest(halted=True, halt_reason=watchdog.halt_reason)
                    logger.error(
                        "[%s] health watchdog halted the run at iteration %d: %s",
                        self.env.graph.name,
                        it + 1,
                        watchdog.halt_reason,
                    )
                    break
                if cfg.early_stop_samples is not None and samples >= cfg.early_stop_samples:
                    break
                if (
                    cfg.patience_samples is not None
                    and self._samples_since_best >= cfg.patience_samples
                ):
                    logger.info(
                        "early stop: no improvement in %d samples", self._samples_since_best
                    )
                    break
        if history.best_placement is not None and not self._attributed_best:
            # The run ended on a best found before this train() call (or on
            # a sub-threshold trickle improvement): still leave one final
            # best-placement attribution event for the report CLI.
            self.env.record_attribution(
                history.best_placement,
                iteration=history.records[-1].iteration if history.records else -1,
            )
        if run_state is not None:
            # Terminal snapshot (skipped if one was just written for this
            # iteration count): a completed run resumes as a no-op, and an
            # early-stopped run resumes from exactly where it stopped.
            run_state.snapshot_if_new(self, history, tel, reason="final")
        return history


class LocalSource:
    """Where :meth:`JointTrainer.train` gets each policy iteration's
    samples: the trainer's agent samples them with ``trainer.rng`` and its
    env measures them.

    The loop uses two members:

    * ``next(tel)`` — this iteration's ``(rollout, results)``;
    * ``after_update()`` — called once the iteration's update ran; returns
      the simulated measurement seconds the iteration charges to the clock.
    """

    def __init__(self, trainer: JointTrainer):
        self.trainer = trainer
        self._env_clock = trainer.env.stats.wall_clock

    def next(self, tel: Telemetry):
        trainer = self.trainer
        with span("rl.sample", telemetry=tel):
            rollout = trainer.agent.sample(trainer.config.samples_per_policy, trainer.rng)
        return rollout, trainer.env.evaluate_batch(rollout.placements)

    def after_update(self) -> float:
        # The env clock is cumulative; charge this iteration's delta.
        clock = self.trainer.env.stats.wall_clock
        delta = clock - self._env_clock
        self._env_clock = clock
        return delta
