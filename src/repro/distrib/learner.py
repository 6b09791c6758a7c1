"""The central learner and worker supervisor of ``repro.distrib``.

:func:`train_distributed` is the distributed twin of
:meth:`repro.rl.trainer.JointTrainer.train`: the sample/measure half of
each policy iteration moves into N rollout-worker processes
(``worker.py``), while advantage computation, the rollout buffer, the
PPO/REINFORCE update (via the trainer's own :meth:`maybe_update`), best-
placement tracking, health watchdog, run-state snapshots and the
``SearchHistory`` all stay here, on the *same* trainer object — so a
distributed run snapshots with the ordinary
:class:`~repro.core.runstate.RunStateManager` and can even be resumed
single-process.

Budget parity: one consumed :class:`~repro.distrib.messages.SampleBatch`
is one policy iteration (workers sample ``samples_per_policy`` placements
per batch by default), so ``iterations=N`` costs the same sample budget
as a single-process run — the speedup comes from overlapping the
measurement latency of N rollouts, not from measuring more.

Simulated clock: on a real testbed the N workers measure concurrently,
so consumed measurement time advances the shared clock by
``env_wall_delta / active_workers`` (perfect overlap of the paper's
per-placement measurement latency), plus the learner's own update
compute — documented in docs/architecture.md §"Distributed training".

Failure model: the :class:`Supervisor` restarts workers that died (any
exit while running counts as a failure) or stopped heartbeating, up to
``max_worker_restarts`` per slot; a restarted slot gets a bumped
generation (fresh RNG stream, fresh queue — a SIGKILL can corrupt only
the dead worker's own pipe). Slots over the restart budget are *lost*;
the run degrades to the survivors and halts only when none remain.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_mod
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.config import DistribConfig, MarsConfig
from repro.distrib.messages import SampleBatch
from repro.distrib.store import VariableStore
from repro.distrib.worker import WorkerSpec, worker_main
from repro.rl.trainer import JointTrainer, SearchHistory, SearchRecord
from repro.telemetry import Telemetry, get_telemetry
from repro.telemetry.health import HealthWatchdog
from repro.telemetry.tracing import record_span, span
from repro.utils.logging import get_logger

logger = get_logger("repro.distrib.learner")

#: Cap on how long one queue poll blocks, so supervisor checks and
#: shutdown stay responsive even in ordered (head-of-line) mode.
_GET_TIMEOUT_S = 0.1


class _QueueDrainer(threading.Thread):
    """Moves messages from one worker's mp queue into a small in-process
    queue, so the learner's main thread never does a *blocking* read on a
    worker pipe.

    This is load-bearing for crash robustness, not a convenience: a
    worker SIGKILLed (or exiting) midway through writing a message larger
    than the pipe buffer leaves a partial frame, and any subsequent
    ``Queue.get`` — even ``get_nowait`` — blocks forever inside
    ``Connection._recv`` waiting for bytes that will never come. With a
    drainer, only this daemon thread can hang on a corrupt pipe; the
    supervisor abandons it together with the dead worker's queue and the
    learner never notices.

    The hand-off queue is bounded (1 slot) so the worker's end-to-end
    backpressure budget stays ``queue_capacity + 1`` batches.
    """

    def __init__(self, source, slot: int, generation: int):
        super().__init__(
            name=f"repro-drain-{slot}-g{generation}", daemon=True
        )
        self.source = source
        self.out: "queue_mod.Queue" = queue_mod.Queue(maxsize=1)

    def run(self) -> None:
        try:
            while True:
                self.out.put(self.source.get())
        except Exception:
            # EOFError/OSError when the queue is discarded — thread done.
            pass


class StopFlag:
    """The learner's shutdown signal to its workers, without a lock.

    A ``multiprocessing.Event`` takes a process-shared lock even in
    ``is_set()``, and workers poll it constantly: a worker SIGKILLed inside
    that call would keep the lock, and the learner's ``set()`` would block
    forever. This flag is one byte of shared memory that the learner only
    writes and workers only read, so it needs no lock.
    """

    def __init__(self, ctx):
        self._value = ctx.Value("b", 0, lock=False)

    def set(self) -> None:
        self._value.value = 1

    def is_set(self) -> bool:
        return bool(self._value.value)


@dataclass
class WorkerHandle:
    """One worker slot's live state, as the supervisor sees it."""

    slot: int
    process: "multiprocessing.process.BaseProcess"
    queue: "multiprocessing.queues.Queue"
    drainer: _QueueDrainer
    generation: int = 0
    restarts: int = 0
    lost: bool = False

    @property
    def alive(self) -> bool:
        return not self.lost and self.process.is_alive()


class Supervisor:
    """Spawns, watches and restarts the rollout workers.

    Liveness has two signals: the process itself (any death while the
    run is active is a failure — workers only exit on shutdown) and the
    shared heartbeat array (a worker stuck inside a rollout longer than
    ``heartbeat_timeout_s`` is declared hung and killed). Either way the
    slot restarts with ``generation + 1`` — fresh RNG stream, fresh
    private queue (the old queue dies with the worker: a SIGKILL mid-
    ``put`` can leave a corrupt pipe) — until its restart budget runs
    out and it is declared lost.
    """

    def __init__(
        self,
        ctx,
        cfg: DistribConfig,
        spec_factory: Callable[[int, int], WorkerSpec],
        store: VariableStore,
        shutdown,
        heartbeat,
        telemetry: Telemetry,
    ):
        self.ctx = ctx
        self.cfg = cfg
        self.spec_factory = spec_factory
        self.store = store
        self.shutdown = shutdown
        self.heartbeat = heartbeat
        self.tel = telemetry
        self.handles: List[WorkerHandle] = []

    # ------------------------------------------------------------------
    def _spawn(self, slot: int, generation: int) -> WorkerHandle:
        queue = self.ctx.Queue(maxsize=self.cfg.queue_capacity)
        spec = self.spec_factory(slot, generation)
        process = self.ctx.Process(
            target=worker_main,
            args=(spec, self.store, queue, self.shutdown, self.heartbeat),
            name=f"repro-rollout-{slot}-g{generation}",
            daemon=True,
        )
        self.heartbeat[slot] = time.monotonic()
        process.start()
        drainer = _QueueDrainer(queue, slot, generation)
        drainer.start()
        return WorkerHandle(
            slot=slot,
            process=process,
            queue=queue,
            drainer=drainer,
            generation=generation,
        )

    def start_all(self, workers: int) -> None:
        for slot in range(workers):
            handle = self._spawn(slot, 0)
            self.handles.append(handle)
            self.tel.emit(
                "distrib_worker",
                worker_id=slot,
                status="started",
                generation=0,
                restarts=0,
                pid=int(handle.process.pid or 0),
            )
        self.tel.gauge("distrib.workers").set(self.alive_count)

    # ------------------------------------------------------------------
    @property
    def alive_count(self) -> int:
        return sum(1 for h in self.handles if h.alive)

    def queue_depth(self) -> int:
        depth = 0
        for h in self.handles:
            if h.lost:
                continue
            depth += h.drainer.out.qsize()
            try:
                depth += h.queue.qsize()
            except NotImplementedError:  # pragma: no cover - macOS qsize
                pass
        return depth

    def _discard_queue(self, handle: WorkerHandle) -> None:
        # The drainer is abandoned with the queue (daemon thread): if the
        # dead worker left a partial frame in the pipe, the drainer is
        # the only thing hung on it, and closing the reader unblocks or
        # orphans it either way.
        try:
            handle.queue.close()
            handle.queue.cancel_join_thread()
        except Exception:  # pragma: no cover - queue already broken
            pass

    def _restart(self, handle: WorkerHandle, reason: str) -> None:
        if handle.process.is_alive():  # hung: heartbeat stale but running
            handle.process.terminate()
            handle.process.join(timeout=2.0)
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join(timeout=2.0)
        self._discard_queue(handle)
        handle.restarts += 1
        if handle.restarts > self.cfg.max_worker_restarts:
            handle.lost = True
            logger.error(
                "rollout worker %d %s and is over its restart budget "
                "(%d) — slot lost, degrading to %d worker(s)",
                handle.slot,
                reason,
                self.cfg.max_worker_restarts,
                self.alive_count,
            )
            self.tel.emit(
                "distrib_worker",
                worker_id=handle.slot,
                status="lost",
                generation=handle.generation,
                restarts=handle.restarts - 1,
                reason=reason,
            )
            return
        handle.generation += 1
        replacement = self._spawn(handle.slot, handle.generation)
        handle.process = replacement.process
        handle.queue = replacement.queue
        handle.drainer = replacement.drainer
        self.tel.counter("distrib.worker_restarts").inc()
        logger.warning(
            "rollout worker %d %s — restarted as generation %d (restart %d/%d)",
            handle.slot,
            reason,
            handle.generation,
            handle.restarts,
            self.cfg.max_worker_restarts,
        )
        self.tel.emit(
            "distrib_worker",
            worker_id=handle.slot,
            status="restarted",
            generation=handle.generation,
            restarts=handle.restarts,
            reason=reason,
            pid=int(handle.process.pid or 0),
        )

    def check(self) -> int:
        """Restart dead/hung workers; returns the live-worker count."""
        now = time.monotonic()
        for handle in self.handles:
            if handle.lost:
                continue
            if not handle.process.is_alive():
                self._restart(handle, "died")
            elif now - self.heartbeat[handle.slot] > self.cfg.heartbeat_timeout_s:
                self._restart(handle, "hung")
        alive = self.alive_count
        self.tel.gauge("distrib.workers").set(alive)
        return alive

    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Graceful shutdown: signal, wait, then escalate to terminate/kill.

        No queue draining here — the drainer threads keep the pipes
        moving, and workers discard their own unflushed buffers on exit
        (``cancel_join_thread``), so nothing in this method can block on
        worker data.
        """
        self.shutdown.set()
        deadline = time.monotonic() + self.cfg.shutdown_timeout_s
        for handle in self.handles:
            handle.process.join(timeout=max(0.1, deadline - time.monotonic()))
        for handle in self.handles:
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=2.0)
            if handle.process.is_alive():  # pragma: no cover - last resort
                handle.process.kill()
                handle.process.join(timeout=2.0)
            self._discard_queue(handle)


class _BatchSource:
    """Pulls the next consumable batch from the worker queues.

    Arrival order by default; ``ordered=True`` consumes strictly
    round-robin across live slots (worker 0, 1, ..., 0, 1, ...), which
    removes consumption-order nondeterminism at the cost of head-of-line
    blocking. Either way, batches from a dead generation (the worker was
    restarted after shipping them) are still valid samples and are
    consumed normally — only staleness can drop them.
    """

    def __init__(self, supervisor: Supervisor, cfg: DistribConfig):
        self.supervisor = supervisor
        self.cfg = cfg
        self._next_slot = 0

    def _try_get(
        self, handle: WorkerHandle, timeout: Optional[float] = None
    ) -> Optional[SampleBatch]:
        try:
            if timeout is None:
                return handle.drainer.out.get_nowait()
            return handle.drainer.out.get(timeout=timeout)
        except queue_mod.Empty:
            return None

    def next_batch(self) -> Optional[SampleBatch]:
        """Block until a batch arrives; ``None`` once no worker remains."""
        while True:
            if self.supervisor.check() == 0:
                return None
            handles = self.supervisor.handles
            if self.cfg.ordered:
                # Find the next live slot at or after the round-robin cursor.
                for off in range(len(handles)):
                    slot = (self._next_slot + off) % len(handles)
                    if not handles[slot].lost:
                        batch = self._try_get(handles[slot], timeout=_GET_TIMEOUT_S)
                        if batch is not None:
                            self._next_slot = (slot + 1) % len(handles)
                            return batch
                        break  # head-of-line: wait for *this* slot
            else:
                for handle in handles:
                    if handle.lost:
                        continue
                    batch = self._try_get(handle)
                    if batch is not None:
                        return batch
                time.sleep(self.cfg.poll_interval_s)


def train_distributed(
    trainer: JointTrainer,
    config: MarsConfig,
    agent_kind: str,
    history: Optional[SearchHistory] = None,
    run_state=None,
    telemetry: Optional[Telemetry] = None,
    on_batch: Optional[Callable[[SampleBatch, Supervisor], None]] = None,
) -> SearchHistory:
    """Distributed actor–learner search over ``config.distrib.workers``
    rollout-worker processes.

    Mirrors :meth:`JointTrainer.train`'s contract: continues an existing
    ``history``, honours ``run_state`` snapshots/halts, feeds the health
    watchdog, and returns the same :class:`SearchHistory` shape.
    ``on_batch`` is a test hook called after each consumed batch with
    ``(batch, supervisor)`` — the SIGKILL restart test kills a worker pid
    from it. Falls back to single-process :meth:`~JointTrainer.train` if
    the workers cannot be spawned at all.
    """
    cfg = config.distrib
    tcfg = trainer.config
    tel = telemetry or trainer._telemetry or get_telemetry()
    history = history or SearchHistory()
    if not history.records and history.sim_clock < history.pretrain_clock:
        history.sim_clock = history.pretrain_clock
    samples = history.total_samples
    samples_per_batch = cfg.samples_per_batch or tcfg.samples_per_policy

    trainer.watchdog = watchdog = HealthWatchdog(trainer.health, telemetry=tel)
    if trainer._pending_watchdog_state is not None:
        watchdog.load_state_dict(trainer._pending_watchdog_state)
        trainer._pending_watchdog_state = None
    if trainer._pending_loop_state is not None:
        samples_since_best = int(trainer._pending_loop_state["samples_since_best"])
        attributed_best = bool(trainer._pending_loop_state["attributed_best"])
        trainer._pending_loop_state = None
    else:
        samples_since_best = 0
        attributed_best = False

    env = trainer.env
    ctx = multiprocessing.get_context()
    store_dir = tempfile.mkdtemp(prefix="repro-distrib-")
    store = VariableStore(store_dir, ctx=ctx)
    shutdown = StopFlag(ctx)
    heartbeat = ctx.Array("d", max(1, cfg.workers), lock=False)
    run_dir = getattr(tel, "run_dir", None)

    def spec_factory(slot: int, generation: int) -> WorkerSpec:
        return WorkerSpec(
            worker_id=slot,
            generation=generation,
            num_workers=cfg.workers,
            root_seed=tcfg.seed,
            agent_kind=agent_kind,
            graph=env.graph,
            cluster=env.cluster,
            config=config,
            protocol=env.protocol,
            samples_per_batch=samples_per_batch,
            run_dir=run_dir,
        )

    supervisor = Supervisor(ctx, cfg, spec_factory, store, shutdown, heartbeat, tel)
    source = _BatchSource(supervisor, cfg)

    # Publish the (possibly pre-trained) initial weights *before* any
    # worker spawns: every replica bootstraps from version 1, bit-
    # identical to the learner's agent.
    store.publish(trainer.agent.state_dict())
    tel.counter("distrib.weight_broadcasts").inc()
    tel.gauge("distrib.policy_version").set(store.version)

    try:
        supervisor.start_all(cfg.workers)
    except OSError as exc:
        logger.warning(
            "cannot spawn rollout workers (%s: %s) — "
            "degrading to single-process training",
            type(exc).__name__,
            exc,
        )
        supervisor.stop()
        shutil.rmtree(store_dir, ignore_errors=True)
        return trainer.train(history, run_state=run_state)

    if run_state is not None:
        run_state.extra.update(workers=cfg.workers, distrib=True)

    updates_done = 0
    try:
        for it in range(tcfg.iterations):
            it_index = len(history.records)
            iter_wall_start = time.perf_counter()
            with span(
                "trainer.iteration", telemetry=tel, iteration=it_index, distrib=True
            ) as iter_span:
                # ---- pull the next fresh-enough batch --------------------
                wait_start = time.perf_counter()
                batch = None
                while batch is None:
                    batch = source.next_batch()
                    if batch is None:
                        break  # all workers lost
                    staleness = store.version - batch.policy_version
                    tel.histogram("distrib.staleness").observe(staleness)
                    if (
                        cfg.max_staleness is not None
                        and staleness > cfg.max_staleness
                    ):
                        tel.counter("distrib.stale_batches").inc()
                        if tel.sample_events:
                            logger.info(
                                "dropped stale batch from worker %d "
                                "(version %d, head %d)",
                                batch.worker_id,
                                batch.policy_version,
                                store.version,
                            )
                        batch = None  # dropped: no budget charge, keep polling
                if batch is None:
                    history.halt_reason = "distrib: all rollout workers lost"
                    tel.update_manifest(halted=True, halt_reason=history.halt_reason)
                    logger.error(
                        "[%s] %s — stopping at iteration %d",
                        env.graph.name,
                        history.halt_reason,
                        it_index,
                    )
                    if run_state is not None:
                        run_state.snapshot_if_new(trainer, history, tel, reason="halt")
                    break
                tel.histogram("distrib.batch_wait_s").observe(
                    time.perf_counter() - wait_start
                )
                tel.histogram("distrib.rollout_s").observe(batch.duration_s)
                tel.counter("distrib.batches").inc()
                tel.counter("distrib.samples").inc(batch.batch_size)
                tel.gauge("distrib.queue_depth").set(supervisor.queue_depth())
                if iter_span.context is not None:
                    # The worker can't write this process's event log;
                    # replay its rollout timing as a child span here.
                    record_span(
                        "distrib.rollout",
                        batch.duration_s,
                        telemetry=tel,
                        parent=iter_span.context,
                        start_unix=batch.start_unix,
                        worker=batch.worker_id,
                        generation=batch.generation,
                        policy_version=batch.policy_version,
                    )

                # ---- the learner half of a JointTrainer iteration --------
                rollout = batch.rollout()
                results = batch.results()
                runtimes = [res.per_step_time for res in results]
                _, advantages = trainer.tracker.compute(runtimes)
                trainer.buffer.add(rollout, advantages)
                samples += len(results)
                tel.counter("trainer.samples").inc(len(results))
                reward_hist = tel.histogram("trainer.sample_runtime")
                for res in results:
                    if res.ok:
                        reward_hist.observe(res.per_step_time)
                if tel.sample_events:
                    for i, res in enumerate(results):
                        tel.emit(
                            "sample",
                            iteration=it_index,
                            index=i,
                            runtime=float(res.per_step_time),
                            valid=bool(res.valid),
                            truncated=bool(res.truncated),
                            advantage=float(advantages[i]),
                            worker=int(batch.worker_id),
                        )

                improved = False
                patience_bar = history.best_runtime * (
                    1.0 - tcfg.patience_min_improvement
                )
                for res, placement in zip(results, rollout.placements):
                    if res.ok and res.per_step_time < history.best_runtime:
                        if res.per_step_time < patience_bar:
                            improved = True
                        history.best_runtime = res.per_step_time
                        history.best_placement = placement.copy()
                        attributed_best = False
                samples_since_best = (
                    0 if improved else samples_since_best + len(results)
                )
                if improved and history.best_placement is not None:
                    env.record_attribution(history.best_placement, iteration=it_index)
                    attributed_best = True

                agent_seconds = trainer.maybe_update(tel, it_index, watchdog)
                if agent_seconds > 0.0:
                    updates_done += 1
                    if updates_done % cfg.broadcast_every == 0:
                        store.publish(trainer.agent.state_dict())
                        tel.counter("distrib.weight_broadcasts").inc()
                        tel.gauge("distrib.policy_version").set(store.version)

                # Simulated clock: the paper's testbed measures the N
                # rollouts concurrently, so measurement latency overlaps
                # across live workers; only the learner's update compute
                # is serial.
                active = max(1, supervisor.alive_count)
                history.sim_clock += batch.env_wall_delta / active + agent_seconds
                sim_clock = history.sim_clock

                record = SearchRecord(
                    iteration=len(history.records),
                    samples_so_far=samples,
                    runtimes=list(runtimes),
                    valid_runtimes=[r.per_step_time for r in results if r.valid],
                    n_invalid=sum(not r.valid for r in results),
                    n_truncated=sum(r.truncated for r in results),
                    best_runtime=history.best_runtime,
                    baseline=trainer.tracker.baseline,
                    sim_clock=sim_clock,
                )
                history.records.append(record)

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
                    worker=int(batch.worker_id),
                    policy_version=int(batch.policy_version),
                )
                if tcfg.log_every and (it + 1) % tcfg.log_every == 0:
                    logger.info(
                        "[%s] distrib iter %d samples %d best %.4fs workers %d",
                        env.graph.name,
                        it + 1,
                        samples,
                        history.best_runtime,
                        supervisor.alive_count,
                    )
                watchdog.observe_iteration(
                    it_index,
                    best_runtime=history.best_runtime,
                    n_invalid=record.n_invalid,
                    n_samples=len(results),
                )
                if on_batch is not None:
                    on_batch(batch, supervisor)
                halt_signal = None
                if run_state is not None:
                    trainer._samples_since_best = samples_since_best
                    trainer._attributed_best = attributed_best
                    run_state.extra["policy_version"] = store.version
                    halt_signal = run_state.after_iteration(
                        trainer, history, tel, force=watchdog.halted
                    )
                if halt_signal:
                    history.halt_reason = f"signal: {halt_signal}"
                    tel.update_manifest(halted=True, halt_reason=history.halt_reason)
                    logger.warning(
                        "[%s] %s received — snapshotted after iteration %d "
                        "and stopping",
                        env.graph.name,
                        halt_signal,
                        it + 1,
                    )
                    break
                if watchdog.halted:
                    history.halt_reason = watchdog.halt_reason
                    tel.update_manifest(halted=True, halt_reason=watchdog.halt_reason)
                    logger.error(
                        "[%s] health watchdog halted the run at iteration %d: %s",
                        env.graph.name,
                        it + 1,
                        watchdog.halt_reason,
                    )
                    break
                if (
                    tcfg.early_stop_samples is not None
                    and samples >= tcfg.early_stop_samples
                ):
                    break
                if (
                    tcfg.patience_samples is not None
                    and samples_since_best >= tcfg.patience_samples
                ):
                    logger.info(
                        "early stop: no improvement in %d samples", samples_since_best
                    )
                    break
        if history.best_placement is not None and not attributed_best:
            env.record_attribution(
                history.best_placement,
                iteration=history.records[-1].iteration if history.records else -1,
            )
        if run_state is not None:
            trainer._samples_since_best = samples_since_best
            trainer._attributed_best = attributed_best
            run_state.snapshot_if_new(trainer, history, tel, reason="final")
    finally:
        supervisor.stop()
        shutil.rmtree(store_dir, ignore_errors=True)
    return history
