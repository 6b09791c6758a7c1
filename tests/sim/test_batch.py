"""Tests for batched placement evaluation and the bounded result cache."""

import numpy as np
import pytest

from repro.sim import BatchEvalConfig, ClusterSpec, PlacementEnv
from repro.telemetry import Telemetry, read_events, start_run
from repro.telemetry.tracing import span
from tests.helpers import tiny_graph

CLUSTER = ClusterSpec.default()


def random_batch(graph, n=8, seed=0, duplicates=True):
    rng = np.random.default_rng(seed)
    batch = [rng.integers(0, CLUSTER.num_devices, graph.num_nodes) for _ in range(n)]
    if duplicates and n >= 2:
        batch[-1] = batch[0].copy()
    return batch


class TestBatchEquivalence:
    """evaluate_batch must be indistinguishable from sequential evaluate."""

    def test_results_stats_and_cache_match_sequential(self):
        g = tiny_graph()
        batch = random_batch(g, n=10)
        seq_env = PlacementEnv(g, CLUSTER)
        batch_env = PlacementEnv(g, CLUSTER, batch=BatchEvalConfig())

        sequential = [seq_env.evaluate(a) for a in batch]
        batched = batch_env.evaluate_batch(batch)

        assert batched == sequential
        assert [r.per_step_time for r in batched] == [r.per_step_time for r in sequential]
        assert batch_env.stats == seq_env.stats
        assert list(batch_env._cache.keys()) == list(seq_env._cache.keys())

    def test_in_batch_duplicates_hit_cache(self):
        g = tiny_graph()
        env = PlacementEnv(g, CLUSTER)
        actions = np.zeros(g.num_nodes, dtype=int)
        results = env.evaluate_batch([actions, actions.copy(), actions.copy()])
        assert env.stats.evaluations == 3
        assert env.stats.cache_hits == 2
        assert results[0] == results[1] == results[2]

    def test_cross_batch_cache_reuse(self):
        g = tiny_graph()
        env = PlacementEnv(g, CLUSTER)
        batch = random_batch(g, n=4, duplicates=False)
        env.evaluate_batch(batch)
        wall = env.stats.wall_clock
        env.evaluate_batch(batch)
        assert env.stats.cache_hits == 4
        # Repeats cost only re-initialization.
        assert env.stats.wall_clock == pytest.approx(
            wall + 4 * env.protocol.reinit_cost
        )

    def test_empty_batch(self):
        env = PlacementEnv(tiny_graph(), CLUSTER)
        assert env.evaluate_batch([]) == []
        assert env.stats.evaluations == 0

    def test_oom_placements_match_sequential(self):
        g = tiny_graph()
        g.nodes[1].param_bytes = 50 * 2**30
        seq_env = PlacementEnv(g, CLUSTER)
        batch_env = PlacementEnv(g, CLUSTER)
        batch = random_batch(g, n=5)
        assert batch_env.evaluate_batch(batch) == [seq_env.evaluate(a) for a in batch]
        assert batch_env.stats.invalid == seq_env.stats.invalid > 0


class TestBatchTelemetry:
    def test_batch_metrics_recorded(self):
        tel = Telemetry(name="test")
        g = tiny_graph()
        env = PlacementEnv(g, CLUSTER, telemetry=tel)
        env.evaluate_batch(random_batch(g, n=8))  # one duplicate -> dedupe
        snap = tel.metrics.snapshot()
        assert snap["counters"]["env.batches"]["value"] == 1
        assert snap["histograms"]["env.batch_size"]["count"] == 1
        assert snap["histograms"]["env.batch_size"]["max"] == 8.0
        dedupe = snap["histograms"]["env.batch_dedupe_rate"]
        assert dedupe["max"] == pytest.approx(1 / 8)
        assert snap["gauges"]["env.cache_size"]["value"] == 7.0

    def test_traced_batch_is_one_span(self, tmp_path):
        g = tiny_graph()
        tel = start_run("test", str(tmp_path))
        try:
            env = PlacementEnv(g, CLUSTER, telemetry=tel)
            with span("root", telemetry=tel, new_trace=True):
                env.evaluate_batch(random_batch(g, n=6))
                env.evaluate_batch(random_batch(g, n=6, seed=1))
        finally:
            tel.close()
        names = [e["name"] for e in read_events(tel.run_dir, types=("span",))]
        assert names == ["env.evaluate_batch", "env.evaluate_batch", "root"]


class TestSnapshot:
    def test_state_with_pool_failure_count_loads(self):
        """Snapshots written while the batch pool existed carry an
        ``eval_pool_failures`` stat; they still resume."""
        g = tiny_graph()
        env = PlacementEnv(g, CLUSTER)
        env.evaluate_batch(random_batch(g, n=4))
        state = env.state_dict()
        state["stats"]["eval_pool_failures"] = 1
        resumed = PlacementEnv(g, CLUSTER)
        resumed.load_state_dict(state)
        assert resumed.stats == env.stats
        assert list(resumed._cache.keys()) == list(env._cache.keys())

    def test_state_dict_has_no_incremental_keys(self):
        env = PlacementEnv(tiny_graph(), CLUSTER)
        state = env.state_dict()
        assert "incremental" not in state
        assert not any(k.startswith("incremental") for k in state["stats"])

    def test_snapshot_with_incremental_keys_resumes_like_uninterrupted_run(self):
        """Snapshots written while the incremental fast path existed carry
        its anchor and two counters; they resume, and the resumed run
        ends where an uninterrupted one does."""
        g = tiny_graph()
        batch = random_batch(g, n=12)
        straight = PlacementEnv(g, CLUSTER)
        for a in batch:
            straight.evaluate(a)

        first = PlacementEnv(g, CLUSTER)
        for a in batch[:6]:
            first.evaluate(a)
        state = first.state_dict()
        state["stats"]["incremental_hits"] = 4
        state["stats"]["incremental_fallbacks"] = 1
        state["incremental"] = {
            "anchor": np.asarray(batch[2], dtype=np.int64),
            "anchor_makespan": 0.5,
        }
        resumed = PlacementEnv(g, CLUSTER)
        resumed.load_state_dict(state)
        for a in batch[6:]:
            resumed.evaluate(a)

        assert resumed.stats == straight.stats
        assert list(resumed._cache.items()) == list(straight._cache.items())


class TestBoundedCache:
    def test_cache_never_exceeds_capacity(self):
        g = tiny_graph()
        env = PlacementEnv(g, CLUSTER, batch=BatchEvalConfig(cache_capacity=4))
        rng = np.random.default_rng(0)
        for _ in range(20):
            env.evaluate(rng.integers(0, CLUSTER.num_devices, g.num_nodes))
        assert env.cache_size <= 4
        assert env.stats.cache_evictions > 0

    def test_lru_keeps_recent_entries(self):
        g = tiny_graph()
        env = PlacementEnv(g, CLUSTER, batch=BatchEvalConfig(cache_capacity=2))
        a = np.zeros(g.num_nodes, dtype=int)
        b = np.ones(g.num_nodes, dtype=int)
        c = np.full(g.num_nodes, 2)
        env.evaluate(a)
        env.evaluate(b)
        env.evaluate(a)  # refresh a -> b is now least recently used
        env.evaluate(c)  # evicts b
        hits = env.stats.cache_hits
        env.evaluate(a)
        assert env.stats.cache_hits == hits + 1
        env.evaluate(b)  # evicted: recomputed, not a hit
        assert env.stats.cache_hits == hits + 1

    def test_evicted_entry_remeasures_identically(self):
        g = tiny_graph()
        env = PlacementEnv(g, CLUSTER, batch=BatchEvalConfig(cache_capacity=1))
        a = np.zeros(g.num_nodes, dtype=int)
        first = env.evaluate(a)
        env.evaluate(np.ones(g.num_nodes, dtype=int))  # evicts a
        again = env.evaluate(a)
        assert again == first  # measurement noise is a function of the placement

    def test_zero_capacity_means_unbounded(self):
        g = tiny_graph()
        env = PlacementEnv(g, CLUSTER, batch=BatchEvalConfig(cache_capacity=0))
        rng = np.random.default_rng(0)
        for _ in range(10):
            env.evaluate(rng.integers(0, CLUSTER.num_devices, g.num_nodes))
        assert env.stats.cache_evictions == 0

    def test_cache_size_gauge_tracks_evictions(self):
        tel = Telemetry(name="test")
        g = tiny_graph()
        env = PlacementEnv(
            g, CLUSTER, telemetry=tel, batch=BatchEvalConfig(cache_capacity=3)
        )
        rng = np.random.default_rng(0)
        for _ in range(10):
            env.evaluate(rng.integers(0, CLUSTER.num_devices, g.num_nodes))
        snap = tel.metrics.snapshot()
        assert snap["gauges"]["env.cache_size"]["value"] <= 3.0
        assert snap["counters"]["env.cache_evictions"]["value"] == env.stats.cache_evictions
