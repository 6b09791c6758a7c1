"""Tests for crash-safe resumable runs (``repro.core.runstate``)."""

import json
import os
import signal

import numpy as np
import pytest

from dataclasses import replace

from repro.config import fast_profile
from repro.core.checkpoint import load_agent
from repro.core.runstate import (
    RUNSTATE_VERSION,
    RunStateManager,
    _pack,
    clear_halt,
    history_to_json,
    install_signal_handlers,
    latest_snapshot,
    load_run_state,
    restore_signal_handlers,
)
from repro.core.search import AGENT_BUILDERS, build_agent, optimize_placement
from repro.rl.trainer import JointTrainer, SearchHistory
from repro.sim import ClusterSpec, PlacementEnv
from tests.helpers import tiny_graph


def _quick_cfg(seed=0, iterations=4, snapshot_every=2):
    cfg = fast_profile(seed=seed, iterations=iterations)
    return replace(
        cfg,
        pretrain=replace(cfg.pretrain, iterations=2),
        snapshot=replace(cfg.snapshot, snapshot_every=snapshot_every),
    )


def _normalized(state):
    """(skeleton-json, arrays-as-lists) — an order-stable, comparable form
    of a nested state dict that may contain ndarrays."""
    arrays = {}
    doc = _pack(state, arrays)
    return json.dumps(doc, sort_keys=True), {k: v.tolist() for k, v in arrays.items()}


class TestSnapshotRoundTripAllKinds:
    """Every registered agent kind must survive snapshot -> load -> state
    comparison: the restored trainer and environment report exactly the
    state that was saved."""

    @pytest.mark.parametrize("kind", sorted(AGENT_BUILDERS))
    def test_state_dict_roundtrip(self, tmp_path, kind):
        graph, cluster = tiny_graph(), ClusterSpec.default()
        cfg = _quick_cfg(iterations=2, snapshot_every=1)
        env = PlacementEnv(graph, cluster)
        agent, pretrain_clock = build_agent(kind, graph, cluster, cfg, None)
        trainer = JointTrainer(agent, env, cfg.trainer)
        manager = RunStateManager(
            str(tmp_path), cfg.snapshot, agent_kind=kind,
            workload=graph.name, mars_config=cfg,
        )
        history = trainer.train(
            SearchHistory(pretrain_clock=pretrain_clock), run_state=manager
        )

        snap = latest_snapshot(str(tmp_path))
        assert snap is not None
        state = load_run_state(snap)
        assert state["agent_kind"] == kind
        assert history_to_json(state["history"]) == history_to_json(history)

        restored_agent, meta = load_agent(
            os.path.join(snap, "agent"), graph, cluster, cfg
        )
        assert meta["agent_kind"] == kind
        env2 = PlacementEnv(graph, cluster)
        trainer2 = JointTrainer(restored_agent, env2, cfg.trainer)
        trainer2.load_state_dict(state["trainer"])
        env2.load_state_dict(state["env"])
        assert _normalized(trainer2.state_dict()) == _normalized(trainer.state_dict())
        assert _normalized(env2.state_dict()) == _normalized(env.state_dict())

    def test_algorithm_mismatch_rejected(self, tmp_path):
        graph, cluster = tiny_graph(), ClusterSpec.default()
        cfg = _quick_cfg(iterations=1, snapshot_every=1)
        env = PlacementEnv(graph, cluster)
        agent, _ = build_agent("mars_no_pretrain", graph, cluster, cfg, None)
        trainer = JointTrainer(agent, env, cfg.trainer)
        state = trainer.state_dict()
        state["algorithm"] = "something_else"
        with pytest.raises(ValueError, match="algorithm"):
            trainer.load_state_dict(state)


class TestInterruptResumeEquivalence:
    """The tentpole contract: a run cut at iteration k and resumed must be
    bit-identical to the uninterrupted run — every SearchHistory field,
    the best placement, and the simulated clock."""

    def test_resume_at_k_matches_uninterrupted(self, tmp_path):
        graph, cluster = tiny_graph(), ClusterSpec.default()
        kind = "mars_no_pretrain"
        total, k = 6, 3

        full = optimize_placement(graph, cluster, kind, _quick_cfg(iterations=total))

        snap_dir = str(tmp_path / "snaps")
        optimize_placement(
            graph, cluster, kind, _quick_cfg(iterations=k, snapshot_every=1),
            snapshot_dir=snap_dir,
        )
        resumed = optimize_placement(
            graph, cluster, kind, _quick_cfg(iterations=total),
            snapshot_dir=snap_dir, resume=True,
        )

        assert history_to_json(resumed.history) == history_to_json(full.history)
        assert resumed.final_runtime == full.final_runtime
        assert np.array_equal(
            resumed.history.best_placement, full.history.best_placement
        )

    def test_snapshot_with_distributed_extra_resumes(self, tmp_path):
        """Snapshots written by the former distributed actor-learner search
        carry an ``extra`` block in their sidecar; resume ignores it and
        continues bit-identically. The sidecar's agent config echo never
        carried the distributed settings, so ``config_from_echo`` reads
        those snapshots unchanged."""
        graph, cluster = tiny_graph(), ClusterSpec.default()
        kind = "mars_no_pretrain"
        total, k = 6, 3

        full = optimize_placement(graph, cluster, kind, _quick_cfg(iterations=total))

        snap_dir = str(tmp_path / "snaps")
        optimize_placement(
            graph, cluster, kind, _quick_cfg(iterations=k, snapshot_every=1),
            snapshot_dir=snap_dir,
        )
        sidecar = os.path.join(latest_snapshot(snap_dir), "runstate.json")
        with open(sidecar, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["extra"] = {"distrib": True, "workers": 2}
        with open(sidecar, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)

        resumed = optimize_placement(
            graph, cluster, kind, _quick_cfg(iterations=total),
            snapshot_dir=snap_dir, resume=True,
        )

        assert history_to_json(resumed.history) == history_to_json(full.history)
        assert resumed.final_runtime == full.final_runtime
        assert np.array_equal(
            resumed.history.best_placement, full.history.best_placement
        )

    def test_resume_with_no_snapshot_starts_fresh(self, tmp_path):
        graph, cluster = tiny_graph(), ClusterSpec.default()
        cfg = _quick_cfg(iterations=2)
        fresh = optimize_placement(
            graph, cluster, "mars_no_pretrain", cfg,
            snapshot_dir=str(tmp_path / "empty"), resume=True,
        )
        assert len(fresh.history.records) == 2

    def test_resume_wrong_agent_kind_is_a_clear_error(self, tmp_path):
        graph, cluster = tiny_graph(), ClusterSpec.default()
        snap_dir = str(tmp_path / "snaps")
        optimize_placement(
            graph, cluster, "mars_no_pretrain",
            _quick_cfg(iterations=1, snapshot_every=1), snapshot_dir=snap_dir,
        )
        with pytest.raises(ValueError, match="mars_no_pretrain"):
            optimize_placement(
                graph, cluster, "encoder_placer", _quick_cfg(iterations=2),
                snapshot_dir=snap_dir, resume=True,
            )


class TestSignalHalt:
    """A real SIGTERM mid-run finishes the iteration, snapshots, records
    the halt, and the run resumes bit-identically afterwards."""

    def test_sigterm_halts_snapshots_and_resumes(self, tmp_path):
        graph, cluster = tiny_graph(), ClusterSpec.default()
        kind = "mars_no_pretrain"
        total, kill_after = 5, 2
        snap_dir = str(tmp_path / "snaps")

        class SigtermAfter(RunStateManager):
            def after_iteration(self, trainer, history, telemetry=None, force=False):
                if len(history.records) == kill_after:
                    os.kill(os.getpid(), signal.SIGTERM)
                return super().after_iteration(trainer, history, telemetry, force=force)

        import repro.core.search as search_mod

        install_signal_handlers()
        original = search_mod.RunStateManager
        search_mod.RunStateManager = SigtermAfter
        try:
            interrupted = optimize_placement(
                graph, cluster, kind, _quick_cfg(iterations=total),
                snapshot_dir=snap_dir,
            )
        finally:
            search_mod.RunStateManager = original
            restore_signal_handlers()

        assert interrupted.history.halt_reason == "signal: SIGTERM"
        assert len(interrupted.history.records) == kill_after
        assert latest_snapshot(snap_dir) is not None

        full = optimize_placement(graph, cluster, kind, _quick_cfg(iterations=total))
        resumed = optimize_placement(
            graph, cluster, kind, _quick_cfg(iterations=total),
            snapshot_dir=snap_dir, resume=True,
        )
        assert history_to_json(resumed.history) == history_to_json(full.history)
        assert resumed.final_runtime == full.final_runtime

    def test_clear_halt_after_restore(self):
        install_signal_handlers()
        try:
            os.kill(os.getpid(), signal.SIGTERM)
            from repro.core.runstate import halt_requested

            assert halt_requested() == "SIGTERM"
            clear_halt()
            assert halt_requested() is None
        finally:
            restore_signal_handlers()


class TestSnapshotHygiene:
    def test_incomplete_snapshot_ignored(self, tmp_path):
        complete = tmp_path / "snap-000002"
        partial = tmp_path / "snap-000004"  # no runstate.json: crashed mid-write
        complete.mkdir()
        (complete / "runstate.json").write_text("{}")
        partial.mkdir()
        (partial / "state.npz").write_text("junk")
        assert latest_snapshot(str(tmp_path)) == str(complete)

    def test_prune_keeps_newest_and_drops_partials(self, tmp_path):
        for n in (2, 4, 6):
            d = tmp_path / f"snap-{n:06d}"
            d.mkdir()
            (d / "runstate.json").write_text("{}")
        partial = tmp_path / "snap-000008"
        partial.mkdir()
        manager = RunStateManager(str(tmp_path))
        manager.config.keep_last = 2
        manager.prune()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "snap-000004", "snap-000006",
        ]

    def test_keep_last_zero_keeps_everything(self, tmp_path):
        for n in (2, 4):
            d = tmp_path / f"snap-{n:06d}"
            d.mkdir()
            (d / "runstate.json").write_text("{}")
        manager = RunStateManager(str(tmp_path))
        manager.config.keep_last = 0
        manager.prune()
        assert len(list(tmp_path.iterdir())) == 2

    def test_unknown_version_refused(self, tmp_path):
        snap = tmp_path / "snap-000001"
        snap.mkdir()
        (snap / "runstate.json").write_text(
            json.dumps({"version": RUNSTATE_VERSION + 1})
        )
        with pytest.raises(ValueError, match="version"):
            load_run_state(str(snap))

    def test_fresh_config_per_manager(self, tmp_path):
        a = RunStateManager(str(tmp_path / "a"))
        b = RunStateManager(str(tmp_path / "b"))
        a.config.snapshot_every = 999
        assert b.config.snapshot_every != 999
