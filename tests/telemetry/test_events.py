"""Unit tests for the JSONL run logger and the session lifecycle."""

import json
import os

import pytest

from repro.telemetry import start_run, use_telemetry, get_telemetry
from repro.telemetry.report import load_run
from repro.telemetry.events import (
    EVENT_SCHEMAS,
    SCHEMA_VERSION,
    NullRunLogger,
    RunLogger,
    event_files,
    read_events,
    validate_event,
)


class TestRunLogger:
    def test_jsonl_round_trip(self, tmp_path):
        run_dir = str(tmp_path / "run")
        with RunLogger(run_dir) as log:
            log.emit("oom", sim_clock=1.0, usage_gb=14.2, capacity_gb=12.0)
            log.emit("cutoff", sim_clock=2.0, per_step_time=9.9, steps_run=3)
        events = list(read_events(run_dir))
        assert [e["type"] for e in events] == ["oom", "cutoff"]
        assert events[0]["usage_gb"] == 14.2
        assert events[1]["steps_run"] == 3

    def test_every_event_carries_schema_version_and_seq(self, tmp_path):
        run_dir = str(tmp_path / "run")
        with RunLogger(run_dir) as log:
            for i in range(5):
                log.emit("run_end", wall_time=float(i))
        events = list(read_events(run_dir))
        assert [e["seq"] for e in events] == list(range(5))
        assert all(e["v"] == SCHEMA_VERSION for e in events)

    def test_rotation_preserves_order_and_never_splits(self, tmp_path):
        run_dir = str(tmp_path / "run")
        with RunLogger(run_dir, max_bytes=200) as log:
            for i in range(40):
                log.emit("run_end", wall_time=float(i))
        parts = event_files(run_dir)
        assert len(parts) > 1
        assert parts == sorted(parts)
        # Every line in every part is complete, parseable JSON.
        for part in parts:
            with open(part) as fh:
                for line in fh:
                    json.loads(line)
        events = list(read_events(run_dir))
        assert [e["seq"] for e in events] == list(range(40))

    def test_type_filter(self, tmp_path):
        run_dir = str(tmp_path / "run")
        with RunLogger(run_dir) as log:
            log.emit("run_start", name="x", wall_time=0.0)
            log.emit("run_end", wall_time=1.0)
        only = list(read_events(run_dir, types=("run_end",)))
        assert len(only) == 1 and only[0]["type"] == "run_end"

    def test_validate_mode_rejects_bad_payload(self, tmp_path):
        log = RunLogger(str(tmp_path / "run"), validate=True)
        with pytest.raises(ValueError, match="missing field"):
            log.emit("oom", sim_clock=1.0)  # usage_gb/capacity_gb missing
        log.close()

    def test_null_logger_writes_nothing(self, tmp_path):
        log = NullRunLogger()
        assert log.emit("oom") == {}
        assert log.num_events == 0
        log.close()


class TestValidateEvent:
    def _minimal(self, etype):
        event = {"v": SCHEMA_VERSION, "type": etype, "seq": 0}
        for field, types in EVENT_SCHEMAS[etype].items():
            t = types[0]
            event[field] = {int: 1, float: 1.0, bool: True, str: "x"}[t]
        return event

    @pytest.mark.parametrize("etype", sorted(EVENT_SCHEMAS))
    def test_minimal_event_of_each_type_validates(self, etype):
        assert validate_event(self._minimal(etype)) == []

    def test_wrong_version_flagged(self):
        event = self._minimal("run_end")
        event["v"] = 99
        assert any("schema version" in e for e in validate_event(event))

    def test_unknown_type_flagged(self):
        errors = validate_event({"v": SCHEMA_VERSION, "type": "nope", "seq": 0})
        assert any("unknown event type" in e for e in errors)

    def test_wrong_field_type_flagged(self):
        event = self._minimal("sample")
        event["valid"] = "yes"  # bool required
        assert any("'valid'" in e for e in validate_event(event))

    def test_non_dict_rejected(self):
        assert validate_event([1, 2, 3]) != []

    def test_extra_fields_allowed(self):
        event = self._minimal("oom")
        event["note"] = "anything"
        assert validate_event(event) == []


class TestSessionLifecycle:
    def test_start_run_writes_manifest_and_run_start(self, tmp_path):
        tel = start_run("My Run!", str(tmp_path), manifest={"workload": "vgg16"})
        assert os.path.basename(tel.run_dir) == "My-Run"
        manifest = json.load(open(os.path.join(tel.run_dir, "manifest.json")))
        assert manifest["workload"] == "vgg16"
        assert manifest["schema_version"] == SCHEMA_VERSION
        tel.close()
        events = list(read_events(tel.run_dir))
        assert events[0]["type"] == "run_start"
        assert events[-1]["type"] == "run_end"
        assert all(validate_event(e) == [] for e in events)

    def test_close_writes_metrics_snapshot(self, tmp_path):
        tel = start_run("r", str(tmp_path))
        tel.counter("c").inc(3)
        tel.histogram("h").observe(2.0)
        tel.close()
        metrics = json.load(open(os.path.join(tel.run_dir, "metrics.json")))
        assert metrics["counters"]["c"]["value"] == 3
        assert metrics["histograms"]["h"]["count"] == 1
        tel.close()  # idempotent

    def test_failed_metrics_write_keeps_previous_snapshot(self, tmp_path, monkeypatch):
        # A reader of a live run directory (the report CLI under
        # --flush-interval) must never see a half-written metrics.json.
        tel = start_run("r", str(tmp_path))
        tel.counter("c").inc()
        tel.flush()

        def dump_then_fail(doc, fh, **kwargs):
            fh.write('{"counters": ')
            raise RuntimeError("write interrupted")

        tel.counter("c").inc()
        monkeypatch.setattr(json, "dump", dump_then_fail)
        with pytest.raises(RuntimeError):
            tel.flush()
        monkeypatch.undo()
        metrics = load_run(tel.run_dir).metrics
        assert metrics["counters"]["c"]["value"] == 1
        assert not [f for f in os.listdir(tel.run_dir) if f.endswith(".tmp")]
        tel.close()

    def test_duplicate_run_names_get_suffixed(self, tmp_path):
        a = start_run("r", str(tmp_path))
        b = start_run("r", str(tmp_path))
        assert a.run_dir != b.run_dir
        assert b.run_dir.endswith("r-2")
        a.close()
        b.close()

    def test_use_telemetry_stack(self, tmp_path):
        ambient = get_telemetry()
        tel = start_run("r", str(tmp_path))
        with use_telemetry(tel):
            assert get_telemetry() is tel
            with use_telemetry(None):  # passthrough
                assert get_telemetry() is tel
        assert get_telemetry() is ambient
        tel.close()
