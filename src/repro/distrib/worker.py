"""The rollout-worker process of the distributed actor–learner loop.

Each worker owns a full :class:`~repro.sim.env.PlacementEnv` shard and a
policy *replica* — the same architecture the learner trains, built
without pre-training (the learner publishes the pre-trained weights as
variable-store version 1 **before** any worker spawns, so every replica
starts bit-identical to the learner's agent). The loop is:

    pull fresh weights (if any) → sample a rollout → measure it in the
    local env shard → push one :class:`~repro.distrib.messages.SampleBatch`

Workers never touch shared learner state: weights arrive through the
read-only :class:`~repro.distrib.store.VariableStore`, samples leave
through a private bounded queue (backpressure: a full queue blocks the
worker instead of letting it race ahead of the learner), and liveness is
a single ``heartbeat[worker_id] = monotonic()`` write per loop step that
the supervisor watches. A SIGKILLed worker can therefore corrupt nothing
but its own queue, which the supervisor discards with it.

Sampling randomness comes from ``spawn_seeds(root_seed, workers,
key=(generation,))[worker_id]`` — statistically independent streams per
worker, and a *fresh* stream per restart generation instead of replaying
the one a dead predecessor half-consumed.
"""

from __future__ import annotations

import os
import queue as queue_mod
import signal
import time
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from repro.config import MarsConfig
from repro.distrib.messages import SampleBatch
from repro.graph import CompGraph
from repro.sim.cluster import ClusterSpec
from repro.sim.env import PlacementEnv
from repro.sim.measurement import MeasurementProtocol
from repro.telemetry import Telemetry, start_run, use_telemetry
from repro.utils.logging import get_logger
from repro.utils.rng import spawn_seeds

logger = get_logger("repro.distrib.worker")

#: Seconds a blocked queue.put waits before re-checking shutdown and
#: re-beating the heartbeat (backpressure must not look like a hang).
_PUT_TIMEOUT_S = 0.2


def replica_build_args(agent_kind: str, config: MarsConfig) -> "tuple[str, MarsConfig]":
    """``(kind, config)`` that rebuilds ``agent_kind``'s architecture
    without re-running pre-training — the same mapping
    ``core/checkpoint.load_agent`` uses, because a replica's weights
    come from the variable store, never from its own pre-training."""
    kind = "mars_no_pretrain" if agent_kind == "mars" else agent_kind
    if kind.startswith("study:"):
        config = replace(config, pretrain=replace(config.pretrain, enabled=False))
    return kind, config


@dataclass
class WorkerSpec:
    """Everything a rollout worker needs, fixed at spawn time."""

    worker_id: int
    generation: int  # bumped per restart of this slot
    num_workers: int
    root_seed: int
    agent_kind: str
    graph: CompGraph
    cluster: ClusterSpec
    config: MarsConfig
    protocol: MeasurementProtocol
    samples_per_batch: int
    #: Learner run directory; when set, the worker opens its own
    #: file-backed telemetry session under ``<run_dir>/workers/``.
    run_dir: Optional[str] = None


def _build_worker(spec: WorkerSpec):
    """Build the worker's (agent, env, rng) triple."""
    # Lazy import: core.search imports repro.distrib for dispatch.
    from repro.core.search import build_agent

    kind, config = replica_build_args(spec.agent_kind, spec.config)
    agent, _ = build_agent(kind, spec.graph, spec.cluster, config)
    env = PlacementEnv(
        spec.graph,
        spec.cluster,
        protocol=spec.protocol,
        batch=spec.config.eval_batch,
        incremental=spec.config.incremental,
    )
    seed_seq = spawn_seeds(
        spec.root_seed, spec.num_workers, key=(spec.generation,)
    )[spec.worker_id]
    # default_rng accepts a SeedSequence directly, preserving the full
    # spawn-tree entropy path.
    return agent, env, np.random.default_rng(seed_seq)


def worker_main(spec: WorkerSpec, store, sample_queue, shutdown, heartbeat) -> None:
    """Process entry point for one rollout worker.

    ``store`` is the learner's :class:`~repro.distrib.store.VariableStore`,
    ``sample_queue`` this worker's private bounded queue, ``shutdown`` the
    shared :class:`~repro.distrib.learner.StopFlag` and ``heartbeat`` the
    shared monotonic-timestamp array the supervisor watches.
    """
    # The parent may have installed graceful SIGTERM/SIGINT handlers
    # (core/runstate.py) — inherited across fork, they would turn the
    # supervisor's terminate() into a no-op request the worker never
    # checks. Reset: SIGTERM kills us, SIGINT is the learner's problem.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    wid = spec.worker_id
    heartbeat[wid] = time.monotonic()

    tel: Telemetry
    owned = None
    if spec.run_dir:
        owned = tel = start_run(
            f"worker-{wid}-g{spec.generation}",
            base_dir=os.path.join(spec.run_dir, "workers"),
            manifest={
                "worker_id": wid,
                "generation": spec.generation,
                "agent_kind": spec.agent_kind,
                "workload": spec.graph.name,
            },
        )
    else:
        tel = Telemetry(name=f"worker-{wid}")

    try:
        with use_telemetry(tel):
            agent, env, rng = _build_worker(spec)
            version = 0
            fetched = store.fetch(newer_than=0)
            if fetched is not None:
                version, state = fetched
                agent.load_state_dict(state)
            heartbeat[wid] = time.monotonic()

            seq = 0
            while not shutdown.is_set():
                heartbeat[wid] = time.monotonic()
                fetched = store.fetch(newer_than=version)
                if fetched is not None:
                    version, state = fetched
                    agent.load_state_dict(state)
                    tel.counter("worker.weight_pulls").inc()

                start_unix = time.time()
                t0 = time.perf_counter()
                rollout = agent.sample(spec.samples_per_batch, rng)
                env_clock0 = env.stats.wall_clock
                # Placement by placement (identical results to
                # evaluate_batch) so shutdown is
                # noticed within one measurement, not one rollout — on a
                # real testbed a rollout is minutes of measurement
                # latency, and stop() must not wait it out.
                results = []
                for devices in rollout.placements:
                    if shutdown.is_set():
                        break
                    heartbeat[wid] = time.monotonic()
                    results.append(env.evaluate(devices))
                if len(results) < rollout.batch_size:
                    break  # shutdown mid-rollout: abandon it
                duration_s = time.perf_counter() - t0

                msg = SampleBatch.build(
                    worker_id=wid,
                    generation=spec.generation,
                    seq=seq,
                    policy_version=version,
                    rollout=rollout,
                    results=results,
                    env_wall_delta=env.stats.wall_clock - env_clock0,
                    duration_s=duration_s,
                    start_unix=start_unix,
                )
                # Backpressure loop: keep heartbeating while the learner
                # drains the queue, bail promptly on shutdown.
                while not shutdown.is_set():
                    heartbeat[wid] = time.monotonic()
                    try:
                        sample_queue.put(msg, timeout=_PUT_TIMEOUT_S)
                        break
                    except queue_mod.Full:
                        continue
                else:
                    break
                seq += 1
                tel.counter("worker.batches").inc()
                tel.counter("worker.samples").inc(len(results))
    except KeyboardInterrupt:  # pragma: no cover - SIGINT ignored above
        pass
    except Exception:
        logger.exception("rollout worker %d (gen %d) crashed", wid, spec.generation)
        raise
    finally:
        # Let the learner's queue-feeder thread die with us instead of
        # blocking interpreter exit on unflushed buffers.
        try:
            sample_queue.cancel_join_thread()
        except Exception:  # pragma: no cover - queue already closed
            pass
        if owned is not None:
            owned.close()
