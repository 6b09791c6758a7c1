"""Tests for the report CLI: the profile table and the --health,
--attribution and --diff modes."""

import json
import os

import numpy as np
import pytest

from repro.sim import ClusterSpec, PlacementEnv
from repro.telemetry import HealthConfig, HealthWatchdog, start_run
from repro.telemetry.report import (
    diff_runs,
    load_run,
    main,
    profile_rows,
    render_diff,
    render_health_section,
    render_report,
    summarize_run,
)
from tests.helpers import tiny_graph


@pytest.fixture()
def sick_run(tmp_path):
    """A run directory with alerts, an attribution event, and metrics."""
    tel = start_run("sick", str(tmp_path), manifest={"workload": "tiny"})
    g = tiny_graph()
    env = PlacementEnv(g, ClusterSpec.default(), telemetry=tel)
    env.record_attribution(np.arange(g.num_nodes) % 2, iteration=1)
    env.record_attribution(np.arange(g.num_nodes) % 3, iteration=2)
    dog = HealthWatchdog(HealthConfig(kl_threshold=0.1, cooldown=0), telemetry=tel)

    class Stats:
        policy_loss = 0.1
        entropy = 1.0
        grad_norm = 0.2
        approx_kl = 0.9

    dog.observe_update(3, Stats())
    tel.counter("trainer.iterations").inc(4)
    tel.close()
    return tel.run_dir


@pytest.fixture()
def healthy_run(tmp_path):
    tel = start_run("healthy", str(tmp_path), manifest={"workload": "tiny"})
    tel.counter("trainer.iterations").inc(6)
    tel.close()
    return tel.run_dir


class TestHealthSection:
    def test_alert_timeline_rendered(self, sick_run):
        text = render_health_section(load_run(sick_run))
        assert "kl_blowup" in text
        assert "1 alert(s)" in text

    def test_quiet_run_fallback(self, healthy_run):
        text = render_health_section(load_run(healthy_run))
        assert "no alerts" in text

    def test_halted_banner(self, tmp_path):
        tel = start_run("halted", str(tmp_path))
        tel.update_manifest(halted=True, halt_reason="nan_guard: boom")
        tel.close()
        text = render_health_section(load_run(tel.run_dir))
        assert "HALTED" in text and "nan_guard: boom" in text


class TestProfileSection:
    def test_self_time_is_total_minus_direct_children(self, tmp_path):
        def h(count, total):
            return {"count": count, "sum": total}

        metrics = {"histograms": {
            "profile.root": h(1, 10.0),
            "profile.root/a": h(4, 6.0),
            "profile.root/a/x": h(8, 2.5),
            "profile.root/a/y": h(8, 1.5),
            "profile.root/b": h(2, 3.0),
            "profile.other": h(5, 2.0),
            "env.makespan": h(9, 1.0),
        }}
        with open(os.path.join(tmp_path, "metrics.json"), "w") as fh:
            json.dump(metrics, fh)
        rows = {r["path"]: r for r in profile_rows(load_run(str(tmp_path)).metrics)}
        assert list(rows) == [
            "other", "root", "root/a", "root/a/x", "root/a/y", "root/b",
        ]
        assert rows["root"]["self_s"] == pytest.approx(1.0)  # 10 - (6 + 3)
        assert rows["root/a"]["self_s"] == pytest.approx(2.0)  # 6 - (2.5 + 1.5)
        assert rows["root/a/x"]["self_s"] == pytest.approx(2.5)
        assert rows["root/a"]["calls"] == 4
        assert rows["root/a/y"]["share"] == pytest.approx(0.15)
        assert rows["other"]["share"] == pytest.approx(1.0)
        text = render_report(str(tmp_path))
        assert "--- profile ---" in text
        assert "root/a/x" in text and "60.0%" in text

    def test_no_table_without_sections(self, healthy_run):
        assert "--- profile ---" not in render_report(healthy_run)


class TestAttributionSection:
    def test_latest_event_rendered(self, sick_run):
        text = render_report(sick_run, attribution=True)
        assert "--- attribution ---" in text
        assert "critical path" in text
        assert "2 attribution snapshots" in text

    def test_fallback_without_events(self, healthy_run):
        text = render_report(healthy_run, attribution=True)
        assert "no attribution events" in text


class TestSummaryFields:
    def test_summary_counts_alerts(self, sick_run):
        summary = summarize_run(load_run(sick_run))
        assert summary["alerts"] == 1
        assert summary["alerts_by_detector"] == {"kl_blowup": 1}
        assert summary["halted"] is False

    def test_attribution_events_validate(self, sick_run):
        assert summarize_run(load_run(sick_run))["schema_errors"] == []


class TestDiff:
    def test_diff_structure(self, sick_run, healthy_run):
        diff = diff_runs(healthy_run, sick_run)
        assert diff["alerts"]["delta"] == 1
        iters = diff["metrics"]["trainer.iterations"]
        assert iters["a_final"] == 6 and iters["b_final"] == 4
        assert iters["delta_final"] == -2

    def test_render_diff(self, sick_run, healthy_run):
        text = render_diff(diff_runs(healthy_run, sick_run))
        assert "run diff" in text
        assert "trainer.iterations" in text
        assert "alerts: 0 -> 1" in text


class TestCLI:
    def test_health_and_attribution_flags(self, sick_run, capsys):
        assert main([sick_run, "--health", "--attribution"]) == 0
        out = capsys.readouterr().out
        assert "--- health ---" in out and "--- attribution ---" in out

    def test_diff_mode(self, sick_run, healthy_run, capsys):
        assert main(["--diff", healthy_run, sick_run]) == 0
        assert "run diff" in capsys.readouterr().out

    def test_diff_json(self, sick_run, healthy_run, capsys):
        import json

        assert main(["--diff", healthy_run, sick_run, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["alerts"]["delta"] == 1

    def test_missing_run_dir_is_an_error(self, capsys):
        assert main([]) == 2
        assert "run_dir" in capsys.readouterr().err

    def test_nonexistent_diff_dir_is_an_error(self, tmp_path):
        assert main(["--diff", str(tmp_path / "a"), str(tmp_path / "b")]) == 2
