"""Tests for the placement attribution engine."""

import json

import numpy as np
import pytest

from repro.sim import (
    ClusterSpec,
    Placement,
    PlacementEnv,
    Scheduler,
    attribute_schedule,
    coalesce_intervals,
)
from repro.telemetry import Telemetry, start_run, read_events, validate_event
from tests.helpers import tiny_graph

CLUSTER = ClusterSpec.default()
SCHED = Scheduler()


def traced(graph, devices):
    placement = Placement(np.asarray(devices), graph, CLUSTER)
    return placement, SCHED.run_step(placement, trace=True)


class TestAttributeSchedule:
    def test_untraced_schedule_rejected(self):
        g = tiny_graph()
        placement = Placement(np.zeros(g.num_nodes, dtype=int), g, CLUSTER)
        schedule = SCHED.run_step(placement)  # no trace
        with pytest.raises(ValueError, match="trace"):
            attribute_schedule(placement, schedule)

    def test_single_device_path_is_all_compute(self):
        g = tiny_graph()
        placement, schedule = traced(g, np.zeros(g.num_nodes, dtype=int))
        attr = attribute_schedule(placement, schedule)
        assert attr.comm_bound_fraction == 0.0
        assert all(s.kind == "op" for s in attr.path)
        # With one device and no comm, every op is on the critical path.
        assert len(attr.path) == g.num_nodes
        assert attr.critical_path_time == pytest.approx(attr.span)
        assert attr.makespan == pytest.approx(schedule.makespan)
        assert attr.makespan == pytest.approx(attr.span + CLUSTER.step_overhead)

    def test_path_tiles_span_contiguously(self):
        g = tiny_graph()
        rng = np.random.default_rng(0)
        for _ in range(10):
            devices = rng.integers(0, CLUSTER.num_devices, g.num_nodes)
            placement, schedule = traced(g, devices)
            attr = attribute_schedule(placement, schedule)
            assert attr.path, "non-empty graph must yield a path"
            assert attr.path[0].start == pytest.approx(0.0, abs=1e-9)
            assert attr.path[-1].end == pytest.approx(attr.span)
            for a, b in zip(attr.path, attr.path[1:]):
                assert b.start == pytest.approx(a.end, abs=1e-9)
            assert attr.critical_path_time == pytest.approx(attr.span)

    def test_cross_device_placement_has_comm_segments(self):
        g = tiny_graph()
        # Alternate devices along the chain: every edge crosses devices.
        devices = np.arange(g.num_nodes) % 2
        placement, schedule = traced(g, devices)
        attr = attribute_schedule(placement, schedule)
        kinds = {s.kind for s in attr.path}
        assert "comm" in kinds
        assert attr.comm_bound_fraction > 0.0
        comm_segments = [s for s in attr.path if s.kind == "comm"]
        for s in comm_segments:
            assert s.dst_device >= 0 and s.dst_device != s.device

    def test_traffic_matrix_totals_match_schedule(self):
        g = tiny_graph()
        devices = np.arange(g.num_nodes) % 3
        placement, schedule = traced(g, devices)
        attr = attribute_schedule(placement, schedule)
        assert attr.traffic_bytes.sum() == pytest.approx(schedule.comm_bytes)
        assert np.all(np.diag(attr.traffic_bytes) == 0.0)
        assert attr.comm_bytes == pytest.approx(schedule.comm_bytes)
        assert attr.comm_time == pytest.approx(schedule.comm_time)

    def test_busy_idle_accounting(self):
        g = tiny_graph()
        devices = np.arange(g.num_nodes) % 2
        placement, schedule = traced(g, devices)
        attr = attribute_schedule(placement, schedule)
        np.testing.assert_allclose(attr.device_busy, schedule.device_busy)
        np.testing.assert_allclose(
            attr.device_idle, np.maximum(attr.span - schedule.device_busy, 0.0)
        )
        assert attr.device_op_counts.sum() == g.num_nodes
        for d, ivals in enumerate(attr.device_intervals):
            busy = sum(e - s for _, s, e in ivals)
            assert busy == pytest.approx(attr.device_busy[d])
            assert len(ivals) == attr.device_op_counts[d]
            for (_, _, prev_end), (_, start, _) in zip(ivals, ivals[1:]):
                assert prev_end <= start + 1e-12  # never overlap

    def test_top_critical_ops_sorted_desc(self):
        g = tiny_graph()
        placement, schedule = traced(g, np.zeros(g.num_nodes, dtype=int))
        attr = attribute_schedule(placement, schedule)
        top = attr.top_critical_ops(3)
        durations = [s.duration for s in top]
        assert durations == sorted(durations, reverse=True)
        assert len(top) == 3

    def test_event_payload_is_json_safe_and_complete(self):
        g = tiny_graph()
        devices = np.arange(g.num_nodes) % 2
        placement, schedule = traced(g, devices)
        attr = attribute_schedule(placement, schedule)
        payload = attr.event_payload(g, iteration=4, top_k=5)
        text = json.dumps(payload)  # must not raise on numpy leftovers
        reloaded = json.loads(text)
        for key in (
            "iteration", "makespan", "critical_path_time", "comm_bound_fraction",
            "utilization", "comm_time", "comm_bytes", "path_ops", "path_comms",
            "devices", "top_ops", "traffic_bytes",
        ):
            assert key in reloaded
        assert reloaded["iteration"] == 4
        assert reloaded["top_ops"][0]["name"] in {n.name for n in g.nodes}
        assert len(reloaded["devices"]) == CLUSTER.num_devices

    def test_empty_graph(self):
        from repro.graph import CompGraph

        g = CompGraph("empty")
        placement, schedule = traced(g, np.zeros(0, dtype=int))
        attr = attribute_schedule(placement, schedule)
        assert attr.path == []
        assert attr.critical_path_time == 0.0
        assert attr.comm_bound_fraction == 0.0


class TestCoalesceIntervals:
    def test_merges_touching_and_overlapping(self):
        spans = [(0.0, 1.0), (1.0, 2.0), (1.5, 3.0), (5.0, 6.0)]
        assert coalesce_intervals(spans) == [(0.0, 3.0), (5.0, 6.0)]

    def test_unsorted_input(self):
        assert coalesce_intervals([(2.0, 3.0), (0.0, 1.0)]) == [(0.0, 1.0), (2.0, 3.0)]

    def test_coarsens_smallest_gaps_first(self):
        # gaps: 0.1 (after first) and 10 (after second) — the small one merges.
        spans = [(0.0, 1.0), (1.1, 2.0), (12.0, 13.0)]
        out = coalesce_intervals(spans, max_intervals=2)
        assert out == [(0.0, 2.0), (12.0, 13.0)]

    def test_empty(self):
        assert coalesce_intervals([]) == []


class TestEnvAttribution:
    def test_env_attribute_matches_env_makespan(self):
        g = tiny_graph()
        env = PlacementEnv(g, CLUSTER)
        actions = np.arange(g.num_nodes) % 2
        attr = env.attribute(actions)
        placement = env.resolve(actions)
        assert attr.makespan == pytest.approx(env.makespan(placement))
        # Utilization definition matches the evaluator's.
        schedule = env.scheduler.run_step(placement)
        expected = float(np.mean(schedule.device_busy) / schedule.makespan)
        assert attr.utilization == pytest.approx(expected)

    def test_attribute_does_not_touch_cache_or_stats(self):
        g = tiny_graph()
        env = PlacementEnv(g, CLUSTER)
        env.attribute(np.zeros(g.num_nodes, dtype=int))
        assert env.stats.evaluations == 0
        assert len(env._cache) == 0

    def test_record_attribution_emits_validating_event(self, tmp_path):
        g = tiny_graph()
        tel = start_run("attr", str(tmp_path))
        env = PlacementEnv(g, CLUSTER, telemetry=tel)
        env.record_attribution(np.arange(g.num_nodes) % 2, iteration=7)
        tel.close()
        events = list(read_events(tel.run_dir, types=("attribution",)))
        assert len(events) == 1
        assert validate_event(events[0]) == []
        assert events[0]["iteration"] == 7
        assert events[0]["critical_path_time"] > 0

    def test_record_attribution_sets_gauges(self):
        g = tiny_graph()
        tel = Telemetry()
        env = PlacementEnv(g, CLUSTER, telemetry=tel)
        attr = env.record_attribution(np.arange(g.num_nodes) % 2)
        snap = tel.metrics.snapshot()
        gauges = snap["gauges"]
        assert gauges["env.critical_path_time"]["value"] == pytest.approx(
            attr.critical_path_time
        )
        assert gauges["env.critical_path_ops"]["value"] == sum(
            1 for s in attr.path if s.kind == "op"
        )
        assert gauges["env.comm_bound_fraction"]["value"] == pytest.approx(
            attr.comm_bound_fraction
        )
