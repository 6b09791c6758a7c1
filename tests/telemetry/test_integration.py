"""Integration: a short search emits well-formed telemetry end to end."""

import json
import os

import pytest

from repro.config import fast_profile
from repro.core import optimize_placement
from repro.sim import ClusterSpec
from repro.telemetry import Telemetry, start_run, use_telemetry
from repro.telemetry.events import read_events, validate_event
from repro.telemetry.report import load_run, render_report, summarize_run
from repro.telemetry.tracing import span
from repro.workloads import build_vgg16


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """One short Mars search recorded into a telemetry run directory."""
    base = tmp_path_factory.mktemp("runs")
    graph = build_vgg16(scale=0.25, batch_size=4)
    tel = start_run(
        "itest", str(base), manifest={"workload": graph.name, "agent_kind": "mars"}
    )
    with use_telemetry(tel):
        optimize_placement(
            graph, ClusterSpec.default(), "mars", fast_profile(seed=0, iterations=3)
        )
    tel.close()
    return tel.run_dir


class TestTrainerRunEmitsEvents:
    def test_all_events_validate(self, run_dir):
        events = list(read_events(run_dir))
        assert events, "run produced no events"
        for event in events:
            assert validate_event(event) == [], event

    def test_expected_event_types_present(self, run_dir):
        types = {e["type"] for e in read_events(run_dir)}
        assert {
            "run_start",
            "run_end",
            "pretrain",
            "iteration",
            "sample",
            "update",
            "eval",
        } <= types

    def test_iteration_events_match_config(self, run_dir):
        iters = list(read_events(run_dir, types=("iteration",)))
        assert len(iters) == 3
        assert [e["iteration"] for e in iters] == [0, 1, 2]
        # best runtime is monotonically non-increasing
        bests = [e["best_runtime"] for e in iters]
        assert bests == sorted(bests, reverse=True)
        assert all(e["sim_clock"] > 0 for e in iters)
        assert all(e["wall_seconds"] > 0 for e in iters)

    def test_sample_events_cover_every_iteration(self, run_dir):
        samples = list(read_events(run_dir, types=("sample",)))
        iters = list(read_events(run_dir, types=("iteration",)))
        # 'samples' on the iteration event is the cumulative count.
        assert len(samples) == iters[-1]["samples"]
        cumulative = [e["samples"] for e in iters]
        assert cumulative == sorted(cumulative)

    def test_update_events_carry_ppo_diagnostics(self, run_dir):
        updates = list(read_events(run_dir, types=("update",)))
        assert updates
        for e in updates:
            assert e["entropy"] >= 0.0
            assert 0.0 <= e["clip_fraction"] <= 1.0
            assert e["passes"] >= 1

    def test_metrics_snapshot_has_enough_names(self, run_dir):
        metrics = json.load(open(os.path.join(run_dir, "metrics.json")))
        names = (
            list(metrics["counters"])
            + list(metrics["gauges"])
            + list(metrics["histograms"])
        )
        assert len(names) >= 12, sorted(names)
        assert "trainer.iterations" in metrics["counters"]
        assert "env.evaluations" in metrics["counters"]
        assert "trainer.entropy" in metrics["histograms"]

    def test_report_renders(self, run_dir):
        text = render_report(run_dir)
        assert "itest" in text
        assert "iteration" in text
        summary = summarize_run(load_run(run_dir))
        assert summary["schema_errors"] == []
        assert summary["event_counts"]["iteration"] == 3

    def test_trace_export_from_events(self, run_dir, tmp_path):
        from repro.analysis.trace import events_to_chrome_trace

        out = str(tmp_path / "run.trace.json")
        trace = events_to_chrome_trace(list(read_events(run_dir)), path=out)
        assert trace["traceEvents"], "trace export produced no slices"
        reloaded = json.load(open(out))
        assert {e["ph"] for e in reloaded["traceEvents"]} & {"X", "C"}


class TestDurationsSurviveClockSteps:
    def test_run_duration_is_monotonic_not_wall(self, tmp_path, monkeypatch):
        """`run_end.duration_s` must stay sane when NTP steps the wall
        clock mid-run; the `wall_time` timestamps may (and do) jump."""
        import time as time_module

        real_time = time_module.time
        tel = start_run("clockstep", str(tmp_path))
        # Step the wall clock one hour into the past before close().
        monkeypatch.setattr(time_module, "time", lambda: real_time() - 3600.0)
        tel.close()

        events = {e["type"]: e for e in read_events(tel.run_dir)}
        start, end = events["run_start"], events["run_end"]
        # The step is visible in the timestamps...
        assert end["wall_time"] < start["wall_time"]
        # ...but the duration comes from the monotonic clock.
        assert 0.0 <= end["duration_s"] < 60.0

    def test_timer_histogram_tolerates_clock_step(self, monkeypatch):
        import time as time_module

        real_time = time_module.time
        tel = Telemetry()
        with span("step", telemetry=tel):
            monkeypatch.setattr(time_module, "time", lambda: real_time() - 3600.0)
        snap = tel.metrics.snapshot()["histograms"]["profile.step"]
        assert 0.0 <= snap["max"] < 60.0


class TestProfileSections:
    def test_default_search_times_the_layers(self):
        tel = Telemetry()  # in memory, like the default ambient session
        with use_telemetry(tel):
            optimize_placement(
                build_vgg16(scale=0.25, batch_size=4),
                ClusterSpec.default(),
                "mars",
                fast_profile(seed=0, iterations=2),
            )
        leaves = {
            name.rsplit("/", 1)[-1].replace("profile.", "")
            for name in tel.metrics.names()
            if name.startswith("profile.")
        }
        assert {
            "rl.sample", "rl.update", "gnn.encode", "placers.decode",
            "placers.score", "nn.backward", "env.evaluate_batch", "pretrain.step",
        } <= leaves
        assert "profile.search.optimize/trainer.iteration/rl.sample" in tel.metrics.names()

