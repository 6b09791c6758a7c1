"""Tests for the placement analysis tools."""

import numpy as np
import pytest

from repro.analysis import (
    analyze_placement,
    critical_path,
    critical_path_ops,
    render_attribution,
)
from repro.analysis.trace import placement_to_chrome_trace
from repro.graph import CompGraph
from repro.sim import ClusterSpec, Placement, Scheduler, attribute_schedule
from repro.sim.placement import resolve_placement
from repro.workloads import get_workload
from tests.helpers import tiny_graph


@pytest.fixture
def placed():
    g = tiny_graph()
    c = ClusterSpec.default()
    return g, c, Placement([4, 0, 1, 0, 1, 4], g, c)


class TestReport:
    def test_report_fields(self, placed):
        g, c, p = placed
        report = analyze_placement(p)
        assert report.makespan > 0
        assert report.cut_edges == p.num_cut_edges()
        assert report.fits_memory
        assert sum(report.device_op_counts.values()) == g.num_nodes

    def test_busy_matches_scheduler(self, placed):
        g, c, p = placed
        report = analyze_placement(p)
        sched = Scheduler().run_step(p)
        assert report.device_busy["gpu:0"] == pytest.approx(sched.device_busy[0])

    def test_utilization_bounded(self, placed):
        _, _, p = placed
        report = analyze_placement(p)
        assert all(0.0 <= u <= 1.0 + 1e-9 for u in report.device_utilization.values())

    def test_summary_text(self, placed):
        _, _, p = placed
        text = analyze_placement(p).summary()
        assert "cut edges" in text and "gpu:0" in text

    def test_oom_warning_in_summary(self):
        g = tiny_graph()
        g.nodes[1].param_bytes = 50 * 2**30
        c = ClusterSpec.default()
        text = analyze_placement(Placement([0] * 6, g, c)).summary()
        assert "OOM" in text


def _attribute(p):
    return attribute_schedule(p, Scheduler().run_step(p, trace=True))


def _random_placements(n=5):
    """Random feasible placements of two workloads on two clusters."""
    rng = np.random.default_rng(7)
    for workload in ("inception_v3", "gnmt4"):
        graph = get_workload(workload, scale=0.25)
        for cluster in (ClusterSpec.default(), ClusterSpec.nvlink()):
            for _ in range(n):
                actions = rng.integers(0, cluster.num_devices, graph.num_nodes)
                yield resolve_placement(actions, graph, cluster)


class TestTimeline:
    """The per-device intervals of ``attribute_schedule`` are the timeline."""

    def test_intervals_cover_all_ops(self, placed):
        g, _, p = placed
        intervals = _attribute(p).device_intervals
        assert sum(len(ivals) for ivals in intervals) == g.num_nodes
        assert sorted(op for ivals in intervals for op, _, _ in ivals) == list(
            range(g.num_nodes)
        )

    def test_intervals_non_overlapping_per_device(self, placed):
        _, _, p = placed
        for ivals in _attribute(p).device_intervals:
            for (_, _, prev_end), (_, start, _) in zip(ivals, ivals[1:]):
                assert prev_end <= start + 1e-12  # previous end <= next start


class TestParityWithAttribution:
    """Every per-device view is the one ``attribute_schedule`` builds."""

    def test_report_fields_equal_attribution(self):
        for p in _random_placements():
            attr = _attribute(p)
            report = analyze_placement(p)
            names = attr.device_names
            assert report.makespan == attr.makespan
            assert report.comm_time == attr.comm_time
            assert report.comm_bytes == attr.comm_bytes
            assert list(report.device_busy) == names
            for d, name in enumerate(names):
                assert report.device_busy[name] == attr.device_busy[d]
                assert report.device_op_counts[name] == attr.device_op_counts[d]
                assert report.device_utilization[name] == (
                    attr.device_busy[d] / attr.makespan
                )

    def test_chrome_trace_slices_are_device_intervals(self):
        for p in _random_placements(n=2):
            attr = _attribute(p)
            slices = [[] for _ in attr.device_names]
            for ev in placement_to_chrome_trace(p)["traceEvents"]:
                if ev["ph"] == "X":
                    slices[ev["pid"]].append(ev)
            for d, ivals in enumerate(attr.device_intervals):
                assert [ev["name"] for ev in slices[d]] == [
                    p.graph.nodes[op].name for op, _, _ in ivals
                ]
                assert [ev["ts"] for ev in slices[d]] == [s * 1e6 for _, s, _ in ivals]


class TestRenderAttribution:
    def test_render_contains_device_names(self, placed):
        g, c, p = placed
        text = render_attribution(_attribute(p), g)
        assert "#" in text
        assert all(d.name in text for d in c.devices)

    def test_gantt_rows_are_width_wide(self, placed):
        g, c, p = placed
        for width in (24, 68):
            lines = render_attribution(_attribute(p), g, width=width).splitlines()
            rows = [ln for ln in lines if ln.endswith("|") and " |" in ln]
            assert len(rows) == c.num_devices
            for row in rows:
                assert len(row.split("|")[1]) == width

    def test_device_busy_percent_is_report_utilization(self):
        """The table's ``busy % of step`` is busy ÷ makespan, the
        utilization the report and the header use."""
        p = next(_random_placements(n=1))
        attr = _attribute(p)
        assert attr.critical_path_time != attr.makespan
        report = analyze_placement(p)
        rows = {}
        for line in render_attribution(attr, p.graph).splitlines():
            cells = [cell.strip() for cell in line.split(" | ")]
            if len(cells) == 5 and cells[0] in report.device_utilization:
                rows[cells[0]] = cells[4]
        assert rows == {
            name: f"{u:.0%}" for name, u in report.device_utilization.items()
        }

    def test_device_busy_plus_idle_is_step_time(self):
        """Each device row's ``busy ms`` + ``idle ms`` is the step time
        (the makespan), to the table's two decimals."""
        for p in _random_placements(n=3):
            attr = _attribute(p)
            step_ms = attr.makespan * 1e3
            rows = 0
            for line in render_attribution(attr, p.graph).splitlines():
                cells = [cell.strip() for cell in line.split(" | ")]
                if len(cells) == 5 and cells[0] in {d.name for d in p.cluster.devices}:
                    busy, idle = float(cells[2]), float(cells[3])
                    assert busy + idle == pytest.approx(step_ms, abs=0.011)
                    rows += 1
            assert rows == p.cluster.num_devices

    def test_render_empty(self):
        g, c = CompGraph("empty"), ClusterSpec.default()
        text = render_attribution(_attribute(Placement([], g, c)), g)
        assert "(empty timeline)" in text


class TestCriticalPath:
    def test_lower_bound_without_placement(self, placed):
        g, c, p = placed
        unplaced, _ = critical_path(g, c)
        placed_len, _ = critical_path(g, c, p)
        assert unplaced <= placed_len + 1e-12

    def test_path_is_connected_chain(self, placed):
        g, c, p = placed
        path = critical_path_ops(g, c, p)
        assert path[0] in [i for i in range(g.num_nodes) if not g.predecessors(i)]
        for u, v in zip(path, path[1:]):
            assert u in g.predecessors(v)

    def test_single_device_critical_path_leq_makespan(self, placed):
        g, c, _ = placed
        p = Placement([0] * 6, g, c)
        cp, _ = critical_path(g, c, p)
        makespan = Scheduler().run_step(p).makespan
        assert cp <= makespan + 1e-12
