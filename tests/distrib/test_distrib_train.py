"""Contract tests for distributed actor–learner training.

The expensive end-to-end contracts from the issue live here:

* **budget parity** — a distributed run (workers=2, fixed seeds) must
  reach a final best makespan no worse than the single-process run on
  the same sample budget;
* **elastic robustness** — SIGKILLing a worker mid-run restarts it
  (``distrib.worker_restarts == 1``) and the run still completes its
  full budget; losing *every* worker halts gracefully instead of
  hanging.
"""

import multiprocessing
import os
import signal
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.config import fast_profile
from repro.core.search import build_agent, optimize_placement
from repro.distrib import replica_build_args, train_distributed
from repro.distrib.learner import StopFlag
from repro.rl.trainer import JointTrainer, SearchHistory
from repro.sim import ClusterSpec, PlacementEnv
from repro.telemetry import Telemetry
from tests.helpers import tiny_graph

CLUSTER = ClusterSpec.default()


class RecordingLogger:
    """In-memory event sink (the real loggers are file-backed or null)."""

    run_dir = None

    def __init__(self):
        self.records = []

    def emit(self, etype, **fields):
        event = {"type": etype, **fields}
        self.records.append(event)
        return event

    def flush(self):
        pass

    def close(self):
        pass


def _quick_cfg(seed=0, iterations=6, workers=2, **distrib_kw):
    cfg = fast_profile(seed=seed, iterations=iterations)
    return replace(
        cfg,
        pretrain=replace(cfg.pretrain, iterations=2),
        distrib=replace(cfg.distrib, workers=workers, **distrib_kw),
    )


def _no_orphans(timeout=5.0):
    """True once no live child processes remain (post-shutdown check)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if not multiprocessing.active_children():
            return True
        time.sleep(0.05)
    return False


class TestReplicaBuildArgs:
    def test_mars_replica_skips_pretraining(self):
        cfg = _quick_cfg()
        kind, out = replica_build_args("mars", cfg)
        assert kind == "mars_no_pretrain"
        assert out is cfg  # no config surgery needed

    def test_study_replica_disables_pretrain_via_config(self):
        cfg = _quick_cfg()
        kind, out = replica_build_args("study:seq2seq", cfg)
        assert kind == "study:seq2seq"
        assert out.pretrain.enabled is False
        assert cfg.pretrain.enabled is True  # original untouched

    def test_other_kinds_pass_through(self):
        cfg = _quick_cfg()
        for kind in ("encoder_placer", "grouper_placer", "mars_no_pretrain"):
            assert replica_build_args(kind, cfg) == (kind, cfg)

    def test_replica_matches_learner_architecture(self):
        # A replica built from the mapped kind must accept the learner
        # agent's state dict verbatim — that is the broadcast contract.
        cfg = _quick_cfg()
        graph = tiny_graph()
        learner_agent, _ = build_agent("mars", graph, CLUSTER, cfg, None)
        kind, rep_cfg = replica_build_args("mars", cfg)
        replica, _ = build_agent(kind, graph, CLUSTER, rep_cfg, None)
        state = learner_agent.state_dict()
        replica.load_state_dict(state)
        for key, value in replica.state_dict().items():
            np.testing.assert_array_equal(value, state[key])


class TestBudgetParity:
    def test_distributed_best_no_worse_than_single_process(self):
        """workers=2 with fixed seeds must match or beat the
        single-process search on the identical sample budget.

        The budget (30 policy iterations = 300 samples) is chosen so both
        searches plateau at the tiny graph's reachable optimum; below
        that, consumption-order nondeterminism lets either side win."""
        graph = tiny_graph()
        single = optimize_placement(
            graph,
            CLUSTER,
            "mars",
            _quick_cfg(iterations=30, workers=0),
            telemetry=Telemetry(name="sp"),
        )
        tel = Telemetry(name="dp")
        dist = optimize_placement(
            graph, CLUSTER, "mars", _quick_cfg(iterations=30, workers=2), telemetry=tel
        )
        # Same budget: one consumed batch == one policy iteration.
        assert len(dist.history.records) == len(single.history.records)
        assert dist.history.records[-1].samples_so_far == (
            single.history.records[-1].samples_so_far
        )
        assert dist.history.best_runtime <= single.history.best_runtime + 1e-12
        assert np.isfinite(dist.final_runtime)
        snap = tel.metrics.snapshot()
        assert snap["counters"]["distrib.batches"]["value"] == len(dist.history.records)
        assert snap["counters"]["distrib.weight_broadcasts"]["value"] >= 1
        assert snap["gauges"]["distrib.policy_version"]["value"] >= 1
        assert _no_orphans()


def _poll_until_set(flag):
    while not flag.is_set():
        pass


class TestElasticRobustness:
    def test_stop_flag_survives_workers_killed_while_polling(self):
        """Workers SIGKILLed in the middle of polling the stop flag must not
        block the learner's ``set()``. A ``multiprocessing.Event`` takes a
        shared lock in ``is_set()``: a worker killed inside that call keeps
        the lock, and ``stop()`` hangs forever."""
        ctx = multiprocessing.get_context()
        flag = StopFlag(ctx)
        for _ in range(5):
            proc = ctx.Process(target=_poll_until_set, args=(flag,), daemon=True)
            proc.start()
            time.sleep(0.05)
            os.kill(proc.pid, signal.SIGKILL)
            proc.join()
        returned = threading.Event()
        threading.Thread(target=lambda: (flag.set(), returned.set()), daemon=True).start()
        assert returned.wait(5.0), "set() blocked on a lock a killed worker held"
        assert flag.is_set()

    def _trainer(self, cfg, graph):
        env = PlacementEnv(graph, CLUSTER)
        agent, pretrain_clock = build_agent("mars", graph, CLUSTER, cfg, None)
        trainer = JointTrainer(agent, env, cfg.trainer, health=cfg.health)
        return trainer, SearchHistory(pretrain_clock=pretrain_clock)

    def test_sigkilled_worker_is_restarted_and_run_completes(self):
        graph = tiny_graph()
        cfg = _quick_cfg(iterations=6, workers=2)
        trainer, history = self._trainer(cfg, graph)
        tel = Telemetry(name="kill", events=RecordingLogger())
        killed = []

        def kill_once(batch, supervisor):
            if not killed:
                handle = supervisor.handles[0]
                os.kill(handle.process.pid, signal.SIGKILL)
                killed.append(handle.process.pid)

        history = train_distributed(
            trainer, cfg, "mars", history=history, telemetry=tel, on_batch=kill_once
        )
        assert killed, "the kill hook never fired"
        assert history.halt_reason is None
        assert len(history.records) == cfg.trainer.iterations
        snap = tel.metrics.snapshot()
        assert snap["counters"]["distrib.worker_restarts"]["value"] == 1
        # The restarted slot announced itself.
        statuses = [
            (e["worker_id"], e["status"])
            for e in tel.events.records
            if e["type"] == "distrib_worker"
        ]
        assert (0, "started") in statuses and (1, "started") in statuses
        assert (0, "restarted") in statuses
        assert _no_orphans()

    def test_losing_every_worker_halts_instead_of_hanging(self):
        graph = tiny_graph()
        cfg = _quick_cfg(iterations=50, workers=1, max_worker_restarts=0)
        trainer, history = self._trainer(cfg, graph)
        tel = Telemetry(name="lost", events=RecordingLogger())

        def kill_always(batch, supervisor):
            for handle in supervisor.handles:
                if handle.alive:
                    os.kill(handle.process.pid, signal.SIGKILL)

        history = train_distributed(
            trainer, cfg, "mars", history=history, telemetry=tel, on_batch=kill_always
        )
        assert history.halt_reason == "distrib: all rollout workers lost"
        assert 1 <= len(history.records) < 50
        statuses = [
            e["status"]
            for e in tel.events.records
            if e["type"] == "distrib_worker"
        ]
        assert "lost" in statuses
        assert _no_orphans()

    def test_spawn_failure_falls_back_to_single_process(self, monkeypatch):
        from repro.distrib import learner as learner_mod

        graph = tiny_graph()
        cfg = _quick_cfg(iterations=3, workers=2)
        trainer, history = self._trainer(cfg, graph)

        def refuse(self, workers):
            raise OSError("fork refused")

        monkeypatch.setattr(learner_mod.Supervisor, "start_all", refuse)
        history = train_distributed(trainer, cfg, "mars", history=history)
        # The run still completes, on the ordinary in-process path.
        assert len(history.records) == 3
        assert history.halt_reason is None
        assert _no_orphans()


class TestSingleProcessResume:
    def test_distributed_run_resumes_single_process(self, tmp_path):
        """A distributed run's snapshots are ordinary run-state snapshots:
        a ``workers=0`` run resumes one and carries on to the full count."""
        from repro.core.runstate import latest_snapshot, load_run_state

        graph = tiny_graph()
        total, k = 6, 3
        snap_dir = str(tmp_path / "snaps")
        cfg = _quick_cfg(iterations=k, workers=1)
        cfg = replace(cfg, snapshot=replace(cfg.snapshot, snapshot_every=2))
        first = optimize_placement(
            graph, CLUSTER, "mars", cfg, telemetry=Telemetry(name="dp"),
            snapshot_dir=snap_dir,
        )
        assert len(first.history.records) == k
        assert _no_orphans()
        snap = load_run_state(latest_snapshot(snap_dir))
        assert snap["extra"]["distrib"] is True
        done = snap["history"].records

        single = replace(
            cfg,
            trainer=replace(cfg.trainer, iterations=total),
            distrib=replace(cfg.distrib, workers=0),
        )
        resumed = optimize_placement(
            graph, CLUSTER, "mars", single, telemetry=Telemetry(name="sp"),
            snapshot_dir=snap_dir, resume=True,
        )
        records = resumed.history.records
        assert resumed.history.halt_reason is None
        assert len(records) == total
        assert [r.iteration for r in records] == list(range(total))
        # The resumed run keeps the snapshot's records as they were ...
        for kept, snapped in zip(records, done):
            assert kept == snapped
        # ... and continues from its last one.
        per_policy = cfg.trainer.samples_per_policy
        assert [r.samples_so_far for r in records[len(done):]] == [
            done[-1].samples_so_far + per_policy * (i + 1)
            for i in range(total - len(done))
        ]
        assert records[len(done)].sim_clock > done[-1].sim_clock
        assert resumed.history.best_runtime <= done[-1].best_runtime
        assert _no_orphans()
