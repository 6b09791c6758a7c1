"""Tests for the checkpoint-directory policy registry."""

import json
import os
import shutil
import threading
import time

import numpy as np
import pytest

from repro.serve import PolicyRegistry
from tests.helpers import tiny_graph
from tests.serve.conftest import chain_graph


class TestScan:
    def test_finds_servable_checkpoints(self, serve_setup):
        ckpt_dir, cluster, cfg = serve_setup
        registry = PolicyRegistry(ckpt_dir)
        ids = [s.policy_id for s in registry.policies()]
        assert ids == ["mars__chain", "mars__tiny"]
        spec = registry.get("mars__tiny")
        assert spec.agent_kind == "mars"
        assert spec.workload == "tiny"
        assert spec.num_devices == cluster.num_devices
        assert spec.feature_dim > 0
        assert spec.num_ops == tiny_graph().num_nodes

    def test_sidecar_without_npz_skipped(self, serve_setup, tmp_path):
        ckpt_dir, _, _ = serve_setup
        shutil.copy(
            os.path.join(ckpt_dir, "mars__tiny.json"), tmp_path / "orphan.json"
        )
        assert len(PolicyRegistry(str(tmp_path))) == 0

    def test_corrupt_sidecar_skipped(self, serve_setup, tmp_path):
        ckpt_dir, _, _ = serve_setup
        for ext in (".json", ".npz"):
            shutil.copy(
                os.path.join(ckpt_dir, "mars__tiny" + ext),
                str(tmp_path / ("good" + ext)),
            )
        (tmp_path / "bad.json").write_text("{not json")
        (tmp_path / "bad.npz").write_bytes(b"\x00")
        registry = PolicyRegistry(str(tmp_path))
        assert [s.policy_id for s in registry.policies()] == ["good"]

    def test_empty_directory(self, tmp_path):
        registry = PolicyRegistry(str(tmp_path))
        assert len(registry) == 0
        assert registry.select(num_devices=5) is None


class TestSelect:
    def test_exact_workload_preferred(self, serve_setup):
        ckpt_dir, cluster, _ = serve_setup
        registry = PolicyRegistry(ckpt_dir)
        n = cluster.num_devices
        assert registry.select(n, workload="tiny").policy_id == "mars__tiny"
        assert registry.select(n, workload="chain").policy_id == "mars__chain"

    def test_unknown_workload_falls_back_to_transfer(self, serve_setup):
        ckpt_dir, cluster, _ = serve_setup
        registry = PolicyRegistry(ckpt_dir)
        spec = registry.select(cluster.num_devices, workload="resnet-from-mars")
        assert spec is not None  # deterministic transfer pick

    def test_device_count_is_a_hard_filter(self, serve_setup):
        ckpt_dir, cluster, _ = serve_setup
        registry = PolicyRegistry(ckpt_dir)
        assert registry.select(cluster.num_devices + 3) is None

    def test_agent_kind_filter(self, serve_setup):
        ckpt_dir, cluster, _ = serve_setup
        registry = PolicyRegistry(ckpt_dir)
        assert registry.select(cluster.num_devices, agent_kind="mars") is not None
        assert registry.select(cluster.num_devices, agent_kind="grouper") is None


class TestLoad:
    def test_load_caches_by_fingerprint(self, serve_setup):
        ckpt_dir, cluster, _ = serve_setup
        registry = PolicyRegistry(ckpt_dir)
        graph = tiny_graph()
        spec = registry.get("mars__tiny")
        first = registry.load(spec, graph, cluster)
        again = registry.load(spec, tiny_graph(), cluster)  # same fingerprint
        assert again is first

    def test_loaded_agent_places_deterministically(self, serve_setup):
        ckpt_dir, cluster, _ = serve_setup
        registry = PolicyRegistry(ckpt_dir)
        graph = tiny_graph()
        loaded = registry.load(registry.get("mars__tiny"), graph, cluster)
        a = loaded.agent.sample(1, np.random.default_rng(0), greedy=True)
        b = loaded.agent.sample(1, np.random.default_rng(0), greedy=True)
        assert np.array_equal(a.placements, b.placements)

    def test_transfer_load_onto_other_graph(self, serve_setup):
        ckpt_dir, cluster, _ = serve_setup
        registry = PolicyRegistry(ckpt_dir)
        other = chain_graph("other", length=7)
        loaded = registry.load(registry.get("mars__tiny"), other, cluster)
        rollout = loaded.agent.sample(1, np.random.default_rng(0), greedy=True)
        assert rollout.placements.shape[1] == other.num_nodes

    def test_agent_cache_bounded(self, serve_setup):
        ckpt_dir, cluster, _ = serve_setup
        registry = PolicyRegistry(ckpt_dir, agent_cache_size=1)
        tiny = tiny_graph()
        spec = registry.get("mars__tiny")
        first = registry.load(spec, tiny, cluster)
        registry.load(spec, chain_graph("evictor"), cluster)
        assert registry.load(spec, tiny, cluster) is not first  # rebuilt


class TestHotReload:
    def test_new_checkpoint_appears(self, serve_setup, tmp_path):
        ckpt_dir, _, _ = serve_setup
        for ext in (".json", ".npz"):
            shutil.copy(
                os.path.join(ckpt_dir, "mars__tiny" + ext),
                str(tmp_path / ("mars__tiny" + ext)),
            )
        registry = PolicyRegistry(str(tmp_path))
        assert len(registry) == 1
        for ext in (".json", ".npz"):
            shutil.copy(
                os.path.join(ckpt_dir, "mars__chain" + ext),
                str(tmp_path / ("mars__chain" + ext)),
            )
        assert registry.refresh() == 2
        assert registry.get("mars__chain") is not None

    def test_removed_checkpoint_disappears(self, serve_setup, tmp_path):
        ckpt_dir, _, _ = serve_setup
        for stem in ("mars__tiny", "mars__chain"):
            for ext in (".json", ".npz"):
                shutil.copy(
                    os.path.join(ckpt_dir, stem + ext), str(tmp_path / (stem + ext))
                )
        registry = PolicyRegistry(str(tmp_path))
        os.remove(tmp_path / "mars__chain.json")
        assert registry.refresh() == 1
        assert registry.get("mars__chain") is None

    def test_mtime_change_invalidates_loaded_agent(self, serve_setup, tmp_path):
        ckpt_dir, cluster, _ = serve_setup
        for ext in (".json", ".npz"):
            shutil.copy(
                os.path.join(ckpt_dir, "mars__tiny" + ext),
                str(tmp_path / ("mars__tiny" + ext)),
            )
        registry = PolicyRegistry(str(tmp_path))
        graph = tiny_graph()
        spec = registry.get("mars__tiny")
        first = registry.load(spec, graph, cluster)
        # Simulate a retrain saved over the same stem.
        sidecar = tmp_path / "mars__tiny.json"
        meta = json.loads(sidecar.read_text())
        sidecar.write_text(json.dumps(meta))
        os.utime(sidecar, (os.path.getmtime(sidecar) + 5, os.path.getmtime(sidecar) + 5))
        registry.refresh()
        fresh_spec = registry.get("mars__tiny")
        assert registry.load(fresh_spec, graph, cluster) is not first

    def test_refresh_wins_over_in_flight_load(self, serve_setup, tmp_path, monkeypatch):
        """A retrain saved while an agent for the old checkpoint is still
        building must never be answered with that agent."""
        import repro.core.checkpoint as checkpoint

        ckpt_dir, cluster, _ = serve_setup
        for ext in (".json", ".npz"):
            shutil.copy(
                os.path.join(ckpt_dir, "mars__tiny" + ext),
                str(tmp_path / ("mars__tiny" + ext)),
            )
        registry = PolicyRegistry(str(tmp_path))
        graph = tiny_graph()
        entered, release = threading.Event(), threading.Event()
        real_load = checkpoint.load_agent

        def hold_first(*args, **kwargs):
            if not entered.is_set():
                entered.set()
                assert release.wait(timeout=30.0)
            return real_load(*args, **kwargs)

        monkeypatch.setattr(checkpoint, "load_agent", hold_first)
        loaded = {}
        stale_spec = registry.get("mars__tiny")
        builder = threading.Thread(
            target=lambda: loaded.update(stale=registry.load(stale_spec, graph, cluster))
        )
        builder.start()
        try:
            assert entered.wait(timeout=30.0)
            sidecar = tmp_path / "mars__tiny.json"
            mtime = os.path.getmtime(sidecar) + 5
            os.utime(sidecar, (mtime, mtime))
            registry.refresh()
        finally:
            release.set()
            builder.join(timeout=30.0)
        fresh = registry.load(registry.get("mars__tiny"), graph, cluster)
        assert fresh is not loaded["stale"]
        assert fresh.spec.mtime == mtime


class TestConcurrentLoad:
    def test_builds_once_per_key_under_concurrency(self, serve_setup, monkeypatch):
        import repro.core.checkpoint as checkpoint

        ckpt_dir, cluster, _ = serve_setup
        registry = PolicyRegistry(ckpt_dir)
        builds = []
        real_load = checkpoint.load_agent

        def counting(*args, **kwargs):
            builds.append(threading.get_ident())
            time.sleep(0.05)  # hold the build window open
            return real_load(*args, **kwargs)

        monkeypatch.setattr(checkpoint, "load_agent", counting)
        spec = registry.get("mars__tiny")
        barrier = threading.Barrier(8)
        results, lock = [], threading.Lock()

        def load():
            barrier.wait(timeout=5.0)
            loaded = registry.load(spec, tiny_graph(), cluster)
            with lock:
                results.append(loaded)

        threads = [threading.Thread(target=load) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert len(builds) == 1
        assert len(results) == 8
        assert all(loaded is results[0] for loaded in results)
