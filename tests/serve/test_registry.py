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


def _copy_policy(ckpt_dir, dest, stem="mars__tiny"):
    for ext in (".json", ".npz"):
        shutil.copy(os.path.join(ckpt_dir, stem + ext), str(dest / (stem + ext)))


def _bump_mtime(sidecar) -> float:
    mtime = os.path.getmtime(sidecar) + 5
    os.utime(sidecar, (mtime, mtime))
    return mtime


@pytest.fixture
def npz_reads(monkeypatch):
    """Every checkpoint parameter read (``load_state_dict`` of an .npz),
    by path."""
    import repro.core.checkpoint as checkpoint

    reads = []
    real = checkpoint.load_state_dict

    def counting(path):
        reads.append(path)
        return real(path)

    monkeypatch.setattr(checkpoint, "load_state_dict", counting)
    return reads


class TestParameterCache:
    """Parameters load once per (policy, mtime); graphs bind to them."""

    def test_distinct_graphs_read_the_checkpoint_once(self, serve_setup, npz_reads):
        ckpt_dir, cluster, _ = serve_setup
        registry = PolicyRegistry(ckpt_dir)
        spec = registry.get("mars__tiny")
        graphs = [tiny_graph()] + [chain_graph(f"c{n}", length=n) for n in range(3, 9)]
        loaded = [registry.load(spec, g, cluster) for g in graphs]
        assert len(npz_reads) == 1
        assert len({id(x) for x in loaded}) == len(graphs)
        # One parameter set: every binding shares its modules and its lock.
        assert all(x.agent.placer is loaded[0].agent.placer for x in loaded)
        assert all(x.lock is loaded[0].lock for x in loaded)
        for x, g in zip(loaded, graphs):
            rollout = x.agent.sample(1, np.random.default_rng(0), greedy=True)
            assert rollout.placements.shape == (1, g.num_nodes)

    def test_each_policy_has_its_own_parameters(self, serve_setup, npz_reads):
        ckpt_dir, cluster, _ = serve_setup
        registry = PolicyRegistry(ckpt_dir)
        graph = tiny_graph()
        a = registry.load(registry.get("mars__tiny"), graph, cluster)
        b = registry.load(registry.get("mars__chain"), graph, cluster)
        assert len(npz_reads) == 2
        assert a.agent.placer is not b.agent.placer
        assert a.lock is not b.lock

    def test_passed_fingerprint_is_the_cache_key(self, serve_setup):
        ckpt_dir, cluster, _ = serve_setup
        registry = PolicyRegistry(ckpt_dir)
        spec = registry.get("mars__tiny")
        graph = tiny_graph()
        first = registry.load(spec, graph, cluster, graph.fingerprint())
        assert registry.load(spec, tiny_graph(), cluster) is first

    def test_mtime_change_reads_the_checkpoint_again(
        self, serve_setup, tmp_path, npz_reads
    ):
        ckpt_dir, cluster, _ = serve_setup
        _copy_policy(ckpt_dir, tmp_path)
        registry = PolicyRegistry(str(tmp_path))
        graph, other = tiny_graph(), chain_graph("other")
        stale = registry.load(registry.get("mars__tiny"), graph, cluster)
        registry.load(registry.get("mars__tiny"), other, cluster)
        assert len(npz_reads) == 1
        _bump_mtime(tmp_path / "mars__tiny.json")
        registry.refresh()
        fresh = registry.load(registry.get("mars__tiny"), other, cluster)
        assert len(npz_reads) == 2
        assert fresh.agent.placer is not stale.agent.placer
        registry.load(registry.get("mars__tiny"), graph, cluster)
        assert len(npz_reads) == 2

    def test_parameter_load_in_flight_during_refresh_is_never_reused(
        self, serve_setup, tmp_path, npz_reads, monkeypatch
    ):
        """A refresh while the old checkpoint's parameters are still
        loading: that load answers its own request and nothing else."""
        import repro.core.checkpoint as checkpoint

        ckpt_dir, cluster, _ = serve_setup
        _copy_policy(ckpt_dir, tmp_path)
        registry = PolicyRegistry(str(tmp_path))
        entered, release = threading.Event(), threading.Event()
        counting = checkpoint.load_state_dict

        def hold_first(path):
            if not entered.is_set():
                entered.set()
                assert release.wait(timeout=30.0)
            return counting(path)

        monkeypatch.setattr(checkpoint, "load_state_dict", hold_first)
        stale_spec = registry.get("mars__tiny")
        loaded = {}
        loader = threading.Thread(
            target=lambda: loaded.update(
                stale=registry.load(stale_spec, tiny_graph(), cluster)
            )
        )
        loader.start()
        try:
            assert entered.wait(timeout=30.0)
            mtime = _bump_mtime(tmp_path / "mars__tiny.json")
            registry.refresh()
        finally:
            release.set()
            loader.join(timeout=30.0)
        assert len(npz_reads) == 1
        stale_modules = loaded["stale"].agent.placer
        # Neither the old spec nor the new one binds to the in-flight load.
        again = registry.load(stale_spec, chain_graph("again"), cluster)
        assert len(npz_reads) == 2
        assert again.agent.placer is not stale_modules
        fresh = registry.load(registry.get("mars__tiny"), chain_graph("fresh"), cluster)
        assert len(npz_reads) == 3
        assert fresh.spec.mtime == mtime
        assert fresh.agent.placer is not stale_modules
