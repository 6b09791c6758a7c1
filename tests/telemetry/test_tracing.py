"""Trace/span layer: activation gating, section paths, propagation, and export."""

import threading

from repro.analysis.trace import events_to_chrome_trace
from repro.telemetry import NULL_TELEMETRY, Telemetry, read_events, start_run
from repro.telemetry.events import validate_event
from repro.telemetry.tracing import (
    NOOP_SPAN,
    SpanContext,
    current_span,
    new_trace_id,
    record_span,
    span,
)


def file_backed(tmp_path, name="trace-test"):
    return start_run(name, str(tmp_path))


def spans_of(run_dir):
    return list(read_events(run_dir, types=("span",)))


def profile_names(tel):
    return [n for n in tel.metrics.names() if n.startswith("profile.")]


class TestActivationGate:
    def test_memory_only_session_records_histogram_only(self):
        tel = Telemetry()
        sp = span("x", telemetry=tel, new_trace=True)
        assert sp.context is None
        with sp:  # untraced: no span to join, no event sink
            assert current_span() is None
        assert profile_names(tel) == ["profile.x"]
        assert tel.metrics.histogram("profile.x").count == 1

    def test_no_trace_to_join_records_histogram_only(self, tmp_path):
        tel = file_backed(tmp_path)
        try:
            with span("x", telemetry=tel) as sp:
                assert sp.context is None
        finally:
            tel.close()
        assert spans_of(tel.run_dir) == []
        assert profile_names(tel) == ["profile.x"]

    def test_sample_events_off_records_no_event(self, tmp_path):
        tel = start_run("no-samples", str(tmp_path), sample_events=False)
        try:
            with span("x", telemetry=tel, new_trace=True) as sp:
                assert sp.context is None
            parent = SpanContext(new_trace_id(), new_trace_id())
            assert record_span("y", 0.1, telemetry=tel, parent=parent) is None
        finally:
            tel.close()
        assert spans_of(tel.run_dir) == []
        assert profile_names(tel) == ["profile.x"]

    def test_disabled_telemetry_yields_noop(self):
        sp = span("x", telemetry=NULL_TELEMETRY, new_trace=True)
        assert sp is NOOP_SPAN
        with sp:
            assert current_span() is None
        assert NULL_TELEMETRY.metrics.names() == []


class TestSectionPaths:
    def test_traced_spans_record_paths_too(self, tmp_path):
        tel = file_backed(tmp_path)
        try:
            with span("root", telemetry=tel, new_trace=True):
                with span("child", telemetry=tel):
                    pass
        finally:
            tel.close()
        assert [e["name"] for e in spans_of(tel.run_dir)] == ["child", "root"]
        assert profile_names(tel) == ["profile.root", "profile.root/child"]

    def test_threads_do_not_share_a_path(self):
        # Two threads hold sections on one session at the same time;
        # each nests only under its own.
        tel = Telemetry()
        both_open = threading.Barrier(2)

        def worker(name):
            with span(name, telemetry=tel):
                both_open.wait(timeout=5)
                with span("inner", telemetry=tel):
                    both_open.wait(timeout=5)

        threads = [threading.Thread(target=worker, args=(n,)) for n in ("a", "b")]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert profile_names(tel) == [
            "profile.a", "profile.a/inner", "profile.b", "profile.b/inner",
        ]


class TestAmbientNesting:
    def test_root_child_tree_and_schema(self, tmp_path):
        tel = file_backed(tmp_path)
        try:
            with span("root", telemetry=tel, new_trace=True) as root:
                assert current_span().span_id == root.span_id
                with span("child", telemetry=tel, extra_field="kept") as child:
                    assert current_span().span_id == child.span_id
                assert current_span().span_id == root.span_id
            assert current_span() is None
        finally:
            tel.close()
        events = spans_of(tel.run_dir)
        assert [e["name"] for e in events] == ["child", "root"]
        for event in events:
            assert validate_event(event) == [], event
            assert event["status"] == "ok"
            assert event["start_unix"] > 0
            assert event["duration_s"] >= 0
        child_ev, root_ev = events
        assert root_ev["parent_id"] == ""
        assert child_ev["parent_id"] == root_ev["span_id"]
        assert child_ev["trace_id"] == root_ev["trace_id"]
        assert child_ev["extra_field"] == "kept"

    def test_exception_marks_span_error(self, tmp_path):
        tel = file_backed(tmp_path)
        try:
            try:
                with span("boom", telemetry=tel, new_trace=True):
                    raise ValueError("nope")
            except ValueError:
                pass
        finally:
            tel.close()
        (event,) = spans_of(tel.run_dir)
        assert event["status"] == "error"
        assert current_span() is None  # stack unwound despite the raise


class TestExplicitPropagation:
    def test_context_round_trips_across_threads(self, tmp_path):
        tel = file_backed(tmp_path)
        try:
            with span("root", telemetry=tel, new_trace=True) as root:
                wire = root.context.to_dict()  # what crosses the queue

            def worker():
                parent = SpanContext.from_dict(wire)
                with span("worker", telemetry=tel, parent=parent):
                    pass

            t = threading.Thread(target=worker)
            t.start()
            t.join()
        finally:
            tel.close()
        events = {e["name"]: e for e in spans_of(tel.run_dir)}
        assert events["worker"]["trace_id"] == events["root"]["trace_id"]
        assert events["worker"]["parent_id"] == events["root"]["span_id"]

    def test_from_dict_rejects_malformed(self):
        assert SpanContext.from_dict(None) is None
        assert SpanContext.from_dict("not-a-dict") is None
        assert SpanContext.from_dict({}) is None
        assert SpanContext.from_dict({"trace_id": 7, "span_id": "s"}) is None
        assert SpanContext.from_dict({"trace_id": "", "span_id": "s"}) is None
        ctx = SpanContext.from_dict({"trace_id": "t", "span_id": "s"})
        assert (ctx.trace_id, ctx.span_id) == ("t", "s")

    def test_record_span_after_the_fact(self, tmp_path):
        tel = file_backed(tmp_path)
        try:
            parent = SpanContext("trace-1", "span-1")
            span_id = record_span(
                "pool.job", 0.25, telemetry=tel, parent=parent,
                start_unix=123.5, status="ok", pool=True,
            )
            assert span_id
            assert record_span("orphan", 0.1, telemetry=tel, parent=None) is None
        finally:
            tel.close()
        (event,) = spans_of(tel.run_dir)
        assert event["span_id"] == span_id
        assert event["trace_id"] == "trace-1"
        assert event["parent_id"] == "span-1"
        assert event["start_unix"] == 123.5
        assert event["duration_s"] == 0.25
        assert event["pool"] is True

    def test_ids_are_unique(self):
        ids = {new_trace_id() for _ in range(1000)}
        assert len(ids) == 1000


class TestPerfettoRoundTrip:
    def test_spans_become_wall_clock_slices(self, tmp_path):
        tel = file_backed(tmp_path)
        try:
            with span("root", telemetry=tel, new_trace=True):
                with span("child", telemetry=tel):
                    pass
        finally:
            tel.close()
        doc = events_to_chrome_trace(read_events(tel.run_dir))
        slices = [
            e for e in doc["traceEvents"]
            if e.get("ph") == "X" and "trace_id" in e.get("args", {})
        ]
        assert {s["name"] for s in slices} == {"root", "child"}
        t0 = min(s["ts"] for s in slices)
        assert t0 == 0.0  # normalized to the earliest span start
        assert all(s["dur"] > 0 for s in slices)
        assert len({s["args"]["trace_id"] for s in slices}) == 1
        metas = [
            e for e in doc["traceEvents"]
            if e.get("name") == "thread_name" and e["pid"] == slices[0]["pid"]
        ]
        assert len(metas) == 1  # one thread row per trace
