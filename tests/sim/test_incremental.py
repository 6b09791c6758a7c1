"""Unit tests for incremental makespan re-evaluation (sim/incremental.py).

The bit-identity contract itself is hammered by
``tests/property/test_incremental_properties.py``; this file pins the
surrounding machinery — fallback decisions, the environment wiring,
counters, config gates and the run-state round trip.
"""

import numpy as np
import pytest

from repro.graph import CompGraph, OpNode
from repro.sim import (
    ClusterSpec,
    CostModel,
    IncrementalEvalConfig,
    IncrementalEvaluator,
    Placement,
    PlacementEnv,
    Scheduler,
    ScheduleTables,
    build_baseline,
    resume_schedule,
)
from repro.telemetry import Telemetry


def layered_graph(layers: int = 12, width: int = 3) -> CompGraph:
    """A ~40-op layered DAG: above the default ``min_ops`` gate."""
    g = CompGraph("layered")
    g.add_node(OpNode("in", "Input", (4, 8)))
    prev = ["in"]
    for layer in range(layers):
        names = []
        for j in range(width):
            name = f"l{layer}/op{j}"
            g.add_node(
                OpNode(name, "MatMul", (16, 32), flops=1e7, param_bytes=4096),
                inputs=prev if j == 0 else [prev[0], f"l{layer}/op{j - 1}"],
            )
            names.append(name)
        prev = names
    g.add_node(OpNode("out", "Concat", (4,)), inputs=prev)
    return g


CLUSTER = ClusterSpec.default()
GRAPH = layered_graph()


def make_baseline(config=None, anchor=None):
    cm = CostModel()
    op_times = cm.op_time_matrix(GRAPH, CLUSTER)
    tables = ScheduleTables(GRAPH, CLUSTER, cm, op_times)
    if anchor is None:
        anchor = np.random.default_rng(0).integers(0, CLUSTER.num_devices, GRAPH.num_nodes)
    cfg = config if config is not None else IncrementalEvalConfig()
    return build_baseline(tables, anchor, cfg), cfg, op_times


class TestConfig:
    def test_rejects_bad_dirty_fraction(self):
        with pytest.raises(ValueError):
            IncrementalEvalConfig(max_dirty_fraction=0.0)
        with pytest.raises(ValueError):
            IncrementalEvalConfig(max_dirty_fraction=1.5)

    def test_rejects_bad_checkpoints(self):
        with pytest.raises(ValueError):
            IncrementalEvalConfig(checkpoints=0)


class TestResume:
    def test_unchanged_placement_returns_baseline_result(self):
        baseline, cfg, _ = make_baseline()
        res = resume_schedule(baseline, baseline.devices.copy(), cfg)
        assert res is baseline.result

    def test_source_move_falls_back(self):
        """Moving a zero-indegree op dirties t=0; no resume point exists."""
        baseline, cfg, _ = make_baseline()
        devices = baseline.devices.copy()
        devices[0] = (devices[0] + 1) % CLUSTER.num_devices  # "in" is a source
        assert resume_schedule(baseline, devices, cfg) is None

    def test_tiny_dirty_threshold_falls_back(self):
        cfg = IncrementalEvalConfig(max_dirty_fraction=1e-9)
        baseline, _, _ = make_baseline(cfg)
        devices = baseline.devices.copy()
        devices[-1] = (devices[-1] + 1) % CLUSTER.num_devices
        assert resume_schedule(baseline, devices, cfg) is None

    def test_resume_matches_full_simulation(self):
        baseline, cfg, op_times = make_baseline()
        sched = Scheduler()
        rng = np.random.default_rng(7)
        hits = 0
        for _ in range(20):
            devices = baseline.devices.copy()
            devices[rng.integers(1, GRAPH.num_nodes)] = rng.integers(0, CLUSTER.num_devices)
            res = resume_schedule(baseline, devices, cfg)
            if res is None:
                continue
            hits += 1
            full = sched.run_step(Placement(devices, GRAPH, CLUSTER), op_times)
            assert res.makespan == full.makespan
            assert np.array_equal(res.finish_times, full.finish_times)
            assert np.array_equal(res.device_busy, full.device_busy)
            assert res.comm_time == full.comm_time
            assert res.comm_bytes == full.comm_bytes
        assert hits > 0

    def test_checkpoint_count_bounds_snapshots(self):
        cfg = IncrementalEvalConfig(checkpoints=4)
        baseline, _, _ = make_baseline(cfg)
        # initial state + at most `checkpoints` periodic snapshots
        assert 1 <= len(baseline.snapshots) <= 5


class TestEvaluator:
    def test_not_ready_before_anchor(self):
        cm = CostModel()
        op_times = cm.op_time_matrix(GRAPH, CLUSTER)
        ev = IncrementalEvaluator(GRAPH, CLUSTER, cm, op_times)
        assert not ev.ready
        assert ev.reschedule(np.zeros(GRAPH.num_nodes, dtype=np.int64)) is None

    def test_min_ops_gate(self):
        small = CompGraph("small")
        small.add_node(OpNode("a", "MatMul", (4, 4), flops=1e6))
        small.add_node(OpNode("b", "ReLU", (4, 4)), inputs=["a"])
        cm = CostModel()
        ev = IncrementalEvaluator(small, CLUSTER, cm, cm.op_time_matrix(small, CLUSTER))
        ev.anchor(np.zeros(2, dtype=np.int64))
        assert not ev.ready

    def test_disabled_gate(self):
        cm = CostModel()
        op_times = cm.op_time_matrix(GRAPH, CLUSTER)
        ev = IncrementalEvaluator(
            GRAPH, CLUSTER, cm, op_times, IncrementalEvalConfig(enabled=False)
        )
        ev.anchor(np.zeros(GRAPH.num_nodes, dtype=np.int64))
        assert not ev.ready

    def test_custom_transfer_time_honoured_by_full_and_incremental(self):
        """A ``transfer_time`` override reaches both paths through the
        shared tables: it moves the makespan, and resumes stay
        bit-identical to full simulation under it."""

        class SlowLinkCostModel(CostModel):
            # Scalar-only on purpose (``max`` of an array raises), so the
            # transfer table must call it once per entry.
            def transfer_time(self, nbytes, cluster, src, dst):
                return max(1e-3, 3.0 * super().transfer_time(nbytes, cluster, src, dst))

        cm = SlowLinkCostModel()
        op_times = cm.op_time_matrix(GRAPH, CLUSTER)
        ev = IncrementalEvaluator(GRAPH, CLUSTER, cm, op_times)
        rng = np.random.default_rng(9)
        anchor = rng.integers(0, CLUSTER.num_devices, GRAPH.num_nodes)
        ev.anchor(anchor)
        assert ev.ready
        custom = Scheduler(cm)
        stock = Scheduler().run_step(Placement(anchor, GRAPH, CLUSTER))
        assert custom.run_step(Placement(anchor, GRAPH, CLUSTER)).makespan > stock.makespan
        hits = 0
        for _ in range(20):
            devices = anchor.copy()
            devices[rng.integers(1, GRAPH.num_nodes)] = rng.integers(0, CLUSTER.num_devices)
            res = ev.reschedule(devices)
            if res is None:
                continue
            hits += 1
            full = custom.run_step(Placement(devices, GRAPH, CLUSTER), op_times)
            assert res.makespan == full.makespan
            assert np.array_equal(res.finish_times, full.finish_times)
            assert np.array_equal(res.start_times, full.start_times)
            assert np.array_equal(res.device_busy, full.device_busy)
            assert res.comm_time == full.comm_time
            assert res.comm_bytes == full.comm_bytes
        assert hits > 0

    def test_maybe_anchor_tracks_improvement(self):
        cm = CostModel()
        op_times = cm.op_time_matrix(GRAPH, CLUSTER)
        ev = IncrementalEvaluator(GRAPH, CLUSTER, cm, op_times)
        rng = np.random.default_rng(5)
        a = rng.integers(0, CLUSTER.num_devices, GRAPH.num_nodes)
        b = rng.integers(0, CLUSTER.num_devices, GRAPH.num_nodes)
        ev.maybe_anchor(a, 10.0)
        ev.reschedule(a)  # builds the baseline, pins anchor_makespan
        ev.maybe_anchor(b, ev.anchor_makespan * 2)  # worse: ignored
        assert np.array_equal(ev.baseline.devices, np.asarray(a, dtype=np.int64))
        ev.maybe_anchor(b, ev.anchor_makespan / 2)  # better: re-anchors
        ev.reschedule(b)
        assert np.array_equal(ev.baseline.devices, np.asarray(b, dtype=np.int64))


class TestEnvWiring:
    def test_anchor_then_neighbour_hits(self):
        tel = Telemetry()
        env = PlacementEnv(GRAPH, CLUSTER, telemetry=tel)
        rng = np.random.default_rng(11)
        anchor = env.resolve(rng.integers(0, CLUSTER.num_devices, GRAPH.num_nodes)).devices
        env.anchor_incremental(anchor)
        neighbour = anchor.copy()
        neighbour[-1] = (neighbour[-1] + 1) % CLUSTER.num_devices
        env.evaluate(neighbour)
        assert env.stats.incremental_hits + env.stats.incremental_fallbacks == 1
        assert (
            tel.counter("env.incremental_hits").value
            == env.stats.incremental_hits
        )
        assert (
            tel.counter("env.incremental_fallbacks").value
            == env.stats.incremental_fallbacks
        )

    def test_disabled_env_counts_nothing(self):
        env = PlacementEnv(
            GRAPH, CLUSTER, incremental=IncrementalEvalConfig(enabled=False)
        )
        rng = np.random.default_rng(12)
        anchor = env.resolve(rng.integers(0, CLUSTER.num_devices, GRAPH.num_nodes)).devices
        env.anchor_incremental(anchor)
        for _ in range(5):
            d = anchor.copy()
            d[rng.integers(0, GRAPH.num_nodes)] = rng.integers(0, CLUSTER.num_devices)
            env.evaluate(d)
        assert env.stats.incremental_hits == 0
        assert env.stats.incremental_fallbacks == 0

    def test_oom_placements_never_attempt(self):
        tiny = ClusterSpec.default(gpu_memory_gb=1e-12)
        env = PlacementEnv(GRAPH, tiny)
        anchor = np.zeros(GRAPH.num_nodes, dtype=np.int64)  # all on GPU 0: OOM
        env.anchor_incremental(anchor)
        result = env.evaluate(anchor)
        assert not result.valid
        assert env.stats.incremental_hits == 0
        assert env.stats.incremental_fallbacks == 0

    def test_state_roundtrip_preserves_anchor_and_counters(self):
        rng = np.random.default_rng(13)
        anchor = rng.integers(0, CLUSTER.num_devices, GRAPH.num_nodes)
        moves = []
        for _ in range(12):
            d = anchor.copy()
            d[rng.integers(1, GRAPH.num_nodes)] = rng.integers(0, CLUSTER.num_devices)
            moves.append(d)

        straight = PlacementEnv(GRAPH, CLUSTER)
        straight.anchor_incremental(anchor)
        for d in moves:
            straight.evaluate(d)

        first = PlacementEnv(GRAPH, CLUSTER)
        first.anchor_incremental(anchor)
        for d in moves[:6]:
            first.evaluate(d)
        resumed = PlacementEnv(GRAPH, CLUSTER)
        resumed.load_state_dict(first.state_dict())
        for d in moves[6:]:
            resumed.evaluate(d)

        assert resumed.stats == straight.stats
        assert resumed.stats.incremental_hits > 0

    def test_old_snapshot_without_incremental_keys_loads(self):
        env = PlacementEnv(GRAPH, CLUSTER)
        state = env.state_dict()
        del state["stats"]["incremental_hits"]
        del state["stats"]["incremental_fallbacks"]
        del state["incremental"]
        fresh = PlacementEnv(GRAPH, CLUSTER)
        fresh.load_state_dict(state)
        assert fresh.stats.incremental_hits == 0
