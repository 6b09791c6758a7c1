"""The central learner and worker supervisor of ``repro.distrib``.

:func:`train_distributed` runs the ordinary
:meth:`repro.rl.trainer.JointTrainer.train` loop with one difference:
each policy iteration's samples come from N rollout-worker processes
(``worker.py``) instead of the trainer's own agent and env. Advantage
computation, the rollout buffer, the PPO/REINFORCE update, best-placement
tracking, the health watchdog, run-state snapshots and the
``SearchHistory`` are that loop's, on the *same* trainer object — so a
distributed run snapshots with the ordinary
:class:`~repro.core.runstate.RunStateManager` and can even be resumed
single-process. What is distributed lives here: the variable store, the
:class:`Supervisor`, the batch source with its staleness drop, the
spawn-failure fallback and teardown.

Budget parity: one consumed :class:`~repro.distrib.messages.SampleBatch`
is one policy iteration (workers sample ``samples_per_policy`` placements
per batch), so ``iterations=N`` costs the same sample budget
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
from repro.rl.trainer import JointTrainer, SearchHistory
from repro.telemetry import Telemetry, get_telemetry, use_telemetry
from repro.telemetry.tracing import record_span
from repro.utils.logging import get_logger

logger = get_logger("repro.distrib.learner")

#: A worker whose heartbeat is older than this is declared hung and
#: restarted (its queue is discarded with it).
HEARTBEAT_TIMEOUT_S = 30.0
#: Learner sleep between queue polls while waiting for samples.
POLL_INTERVAL_S = 0.005
#: Seconds the learner waits for workers to exit after setting the stop
#: flag before terminating them.
SHUTDOWN_TIMEOUT_S = 10.0


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
    :data:`HEARTBEAT_TIMEOUT_S` is declared hung and killed). Either way the
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
            elif now - self.heartbeat[handle.slot] > HEARTBEAT_TIMEOUT_S:
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
        deadline = time.monotonic() + SHUTDOWN_TIMEOUT_S
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
    """Pulls the next consumable batch from the worker queues, in arrival
    order.

    Batches from a dead generation (the worker was restarted after
    shipping them) are still valid samples and are consumed normally;
    only staleness drops a batch: one sampled more than ``max_staleness``
    policy versions behind the store's head costs no budget and is
    skipped.
    """

    def __init__(self, supervisor: Supervisor, cfg: DistribConfig):
        self.supervisor = supervisor
        self.cfg = cfg

    def _poll(self) -> Optional[SampleBatch]:
        """Block until a batch arrives; ``None`` once no worker remains."""
        while True:
            if self.supervisor.check() == 0:
                return None
            for handle in self.supervisor.handles:
                if handle.lost:
                    continue
                try:
                    return handle.drainer.out.get_nowait()
                except queue_mod.Empty:
                    pass
            time.sleep(POLL_INTERVAL_S)

    def next_batch(self) -> Optional[SampleBatch]:
        """The next fresh-enough batch; ``None`` once no worker remains."""
        store, tel = self.supervisor.store, self.supervisor.tel
        while True:
            batch = self._poll()
            if batch is None:
                return None
            staleness = store.version - batch.policy_version
            tel.histogram("distrib.staleness").observe(staleness)
            if self.cfg.max_staleness is None or staleness <= self.cfg.max_staleness:
                return batch
            tel.counter("distrib.stale_batches").inc()
            if tel.writes_events:
                logger.info(
                    "dropped stale batch from worker %d (version %d, head %d)",
                    batch.worker_id,
                    batch.policy_version,
                    store.version,
                )


class _WorkerBatches:
    """The trainer's sample source in a distributed run (the interface is
    :class:`~repro.rl.trainer.LocalSource`'s): each policy iteration
    consumes one worker batch, and every update publishes fresh weights.
    """

    span_fields = {"distrib": True}
    halt_reason = "distrib: all rollout workers lost"

    def __init__(
        self,
        trainer: JointTrainer,
        store: VariableStore,
        supervisor: Supervisor,
        batches: _BatchSource,
        run_state,
        on_batch: Optional[Callable[[SampleBatch, Supervisor], None]],
        telemetry: Telemetry,
    ):
        self.trainer = trainer
        self.store = store
        self.supervisor = supervisor
        self.batches = batches
        self.tel = telemetry
        self.run_state = run_state
        self.on_batch = on_batch
        self.batch: Optional[SampleBatch] = None

    def publish(self) -> None:
        """Broadcast the learner agent's weights as a new store version."""
        self.store.publish(self.trainer.agent.state_dict())
        self.tel.counter("distrib.weight_broadcasts").inc()
        self.tel.gauge("distrib.policy_version").set(self.store.version)

    def next(self, tel: Telemetry, iteration_span):
        wait_start = time.perf_counter()
        self.batch = batch = self.batches.next_batch()
        if batch is None:
            return None
        tel.histogram("distrib.batch_wait_s").observe(time.perf_counter() - wait_start)
        tel.histogram("distrib.rollout_s").observe(batch.duration_s)
        tel.counter("distrib.batches").inc()
        tel.counter("distrib.samples").inc(batch.batch_size)
        tel.gauge("distrib.queue_depth").set(self.supervisor.queue_depth())
        if iteration_span.context is not None:
            # The worker can't write this process's event log; replay its
            # rollout timing as a child span here.
            record_span(
                "distrib.rollout",
                batch.duration_s,
                telemetry=tel,
                parent=iteration_span.context,
                start_unix=batch.start_unix,
                worker=batch.worker_id,
                generation=batch.generation,
                policy_version=batch.policy_version,
            )
        return batch.rollout(), batch.results()

    def event_fields(self, event: str) -> dict:
        fields = {"worker": int(self.batch.worker_id)}
        if event == "iteration":
            fields["policy_version"] = int(self.batch.policy_version)
        return fields

    def after_update(self, updated: bool) -> float:
        if updated:
            self.publish()
            if self.run_state is not None:
                self.run_state.extra["policy_version"] = self.store.version
        # Simulated clock: the paper's testbed measures the N rollouts
        # concurrently, so measurement latency overlaps across live
        # workers; only the learner's update compute is serial.
        seconds = self.batch.env_wall_delta / max(1, self.supervisor.alive_count)
        if self.on_batch is not None:
            self.on_batch(self.batch, self.supervisor)
        return seconds


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

    Runs :meth:`JointTrainer.train` with a source of worker batches, so
    it continues an existing ``history``, honours ``run_state``
    snapshots/halts, feeds the health watchdog, and returns the same
    :class:`SearchHistory` shape. ``telemetry`` becomes the run's ambient
    session (a session the trainer was built with takes precedence, as
    in :meth:`JointTrainer.train`). ``on_batch`` is
    a test hook called after each consumed batch's update with ``(batch,
    supervisor)`` — the SIGKILL restart test kills a worker pid from it.
    Falls back to single-process :meth:`~JointTrainer.train` if the
    workers cannot be spawned at all.
    """
    cfg = config.distrib
    with use_telemetry(telemetry):
        tel = trainer._telemetry or get_telemetry()
        env = trainer.env
        ctx = multiprocessing.get_context()
        store_dir = tempfile.mkdtemp(prefix="repro-distrib-")
        store = VariableStore(store_dir, ctx=ctx)
        shutdown = StopFlag(ctx)
        heartbeat = ctx.Array("d", max(1, cfg.workers), lock=False)
        run_dir = tel.run_dir

        def spec_factory(slot: int, generation: int) -> WorkerSpec:
            return WorkerSpec(
                worker_id=slot,
                generation=generation,
                num_workers=cfg.workers,
                root_seed=trainer.config.seed,
                agent_kind=agent_kind,
                graph=env.graph,
                cluster=env.cluster,
                config=config,
                protocol=env.protocol,
                samples_per_batch=trainer.config.samples_per_policy,
                run_dir=run_dir,
            )

        supervisor = Supervisor(ctx, cfg, spec_factory, store, shutdown, heartbeat, tel)
        batches = _BatchSource(supervisor, cfg)
        source = _WorkerBatches(
            trainer, store, supervisor, batches, run_state, on_batch, tel
        )
        # Publish the (possibly pre-trained) initial weights *before* any
        # worker spawns: every replica bootstraps from version 1, bit-
        # identical to the learner's agent.
        source.publish()
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
            run_state.extra.update(
                workers=cfg.workers, distrib=True, policy_version=store.version
            )
        try:
            return trainer.train(history, run_state=run_state, source=source)
        finally:
            supervisor.stop()
            shutil.rmtree(store_dir, ignore_errors=True)
