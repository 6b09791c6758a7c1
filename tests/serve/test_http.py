"""End-to-end tests over the HTTP endpoint (real sockets, loopback)."""

import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.graph import graph_to_dict
from repro.serve import PlacementServer, PlacementService, PolicyRegistry, ServeConfig
from repro.serve.http import _Handler
from tests.helpers import tiny_graph


@pytest.fixture(scope="module")
def server(serve_setup):
    ckpt_dir, _, _ = serve_setup
    service = PlacementService(PolicyRegistry(ckpt_dir))
    srv = PlacementServer(service, port=0).start()  # ephemeral port
    yield srv
    srv.shutdown()


def get(server, path):
    with urllib.request.urlopen(server.address + path, timeout=30) as resp:
        return resp.status, json.loads(resp.read())


def post(server, path, doc):
    req = urllib.request.Request(
        server.address + path,
        data=json.dumps(doc).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestKeepAlive:
    def test_served_connection_sets_tcp_nodelay(self, server, monkeypatch):
        seen = []
        setup = _Handler.setup

        def recording_setup(handler):
            setup(handler)
            seen.append(handler.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))

        monkeypatch.setattr(_Handler, "setup", recording_setup)
        get(server, "/healthz")
        assert seen and all(seen)

    def test_sequential_requests_on_one_connection_do_not_stall(self, server):
        """Nagle plus the client's delayed ACK would hold every response
        after the first on a keep-alive connection for ~40 ms."""
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            times = []
            for _ in range(5):
                t0 = time.perf_counter()
                conn.request("GET", "/healthz")
                resp = conn.getresponse()
                resp.read()
                times.append(time.perf_counter() - t0)
                assert resp.status == 200
        finally:
            conn.close()
        assert min(times[1:]) < 0.030, times


class TestRoutes:
    def test_healthz(self, server):
        status, doc = get(server, "/healthz")
        assert status == 200
        assert doc["status"] == "ok"
        assert doc["policies"] == 2
        assert "queue_depth" in doc and "cache" in doc

    def test_healthz_liveness_and_slo_fields(self, server):
        import os

        from repro.telemetry.events import SCHEMA_VERSION

        status, doc = get(server, "/healthz")
        assert status == 200
        assert doc["uptime_s"] > 0
        assert doc["pid"] == os.getpid()
        assert doc["schema_version"] == SCHEMA_VERSION
        slo = doc["slo"]
        assert slo["latency_slo_ms"] > 0
        assert slo["latency_ok"] and slo["errors_ok"] and slo["rejects_ok"]
        assert slo["alerts"] == 0

    def test_metrics_prometheus_exposition(self, server):
        # Drive one request so serve.* metrics exist, then scrape.
        post(server, "/place", {"graph": graph_to_dict(tiny_graph()), "budget": 0})
        import re

        with urllib.request.urlopen(server.address + "/metrics", timeout=30) as resp:
            assert resp.status == 200
            assert resp.headers["Content-Type"].startswith("text/plain")
            text = resp.read().decode("utf-8")
        assert text.endswith("\n")
        sample_re = re.compile(
            r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? \S+$"
        )
        names = set()
        for line in text.splitlines():
            if not line or line.startswith(("# HELP ", "# TYPE ")):
                continue
            assert sample_re.match(line), line
            names.add(line.split("{", 1)[0].split(" ", 1)[0])
        assert any(n.startswith("serve_") for n in names)

    def test_place_response_echoes_unique_trace_id(self, server):
        body = {"graph": graph_to_dict(tiny_graph()), "budget": 0}
        _, first = post(server, "/place", body)
        _, second = post(server, "/place", body)  # cache hit path
        assert first["trace_id"] and second["trace_id"]
        assert first["trace_id"] != second["trace_id"]
        assert second["cache"] == "hit"

    def test_policies(self, server):
        status, doc = get(server, "/policies")
        assert status == 200
        ids = [p["policy_id"] for p in doc["policies"]]
        assert ids == ["mars__chain", "mars__tiny"]

    def test_unknown_path(self, server):
        status, doc = get_error(server, "/nope")
        assert status == 404 and doc["error"] == "not_found"

    def test_place_and_cache_hit(self, server):
        body = {"graph": graph_to_dict(tiny_graph()), "budget": 0}
        status, first = post(server, "/place", body)
        assert status == 200
        assert first["policy_id"] == "mars__tiny"
        assert first["latency_ms"] > 0
        assert set(first["placement"]) == {n.name for n in tiny_graph().nodes}
        status, second = post(server, "/place", body)
        assert status == 200
        assert second["cache"] == "hit"
        assert second["placement"] == first["placement"]

    def test_place_by_workload_name(self, server):
        status, doc = post(
            server, "/place", {"workload": "vgg16", "workload_kwargs": {"scale": 0.25}}
        )
        assert status == 200 and doc["placement"]

    def test_bad_json_body(self, server):
        req = urllib.request.Request(
            server.address + "/place", data=b"{oops", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=30)
        assert err.value.code == 400
        assert json.loads(err.value.read())["error"] == "bad_request"

    def test_empty_body_rejected(self, server):
        req = urllib.request.Request(
            server.address + "/place", data=b"", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=30)
        assert err.value.code == 400

    def test_typed_errors_surface_with_status(self, server):
        status, doc = post(server, "/place", {"workload": "not-a-workload"})
        assert status == 400 and doc["error"] == "bad_request"
        status, doc = post(
            server, "/place", {"workload": "vgg16", "cluster": {"num_gpus": 2}}
        )
        assert status == 404 and doc["error"] == "policy_not_found"
        status, doc = post(server, "/place", {"workload": "vgg16", "bogus": 1})
        assert status == 400 and "bogus" in doc["message"]

    @pytest.mark.parametrize(
        "body",
        [
            {"workload": "vgg16", "budget": "5"},
            {"workload": "vgg16", "budget": 1.5},
            {"workload": "vgg16", "budget": True},
            {"graph": [1, 2]},
            {"workload": "vgg16", "cluster": "nvlink"},
            {"workload": "vgg16", "workload_kwargs": [0.25]},
            {"workload": "vgg16", "use_cache": "no"},
            {"workload": ["vgg16"]},
            {"workload": "vgg16", "policy_id": 3},
        ],
    )
    def test_mistyped_fields_get_a_typed_400(self, server, body):
        status, doc = post(server, "/place", body)
        assert status == 400 and doc["error"] == "bad_request"
        assert "must be" in doc["message"]

    def test_unhashable_graph_document_gets_a_typed_400(self, server):
        body = {"graph": {"name": "g", "nodes": [{"name": "a", "op_type": "Add"},
                                                 {"name": 1, "op_type": "Add"}]}}
        status, doc = post(server, "/place", body)
        assert status == 400 and doc["error"] == "bad_request"

    def test_reload_clears_cache(self, server):
        body = {"graph": graph_to_dict(tiny_graph())}
        post(server, "/place", body)
        status, doc = post(server, "/reload", {})
        assert status == 200
        assert doc["policies"] == 2
        status, after = post(server, "/place", body)
        assert after["cache"] == "miss"  # cache was cleared


class TestAdmission:
    def test_place_without_a_slot_in_time_gets_504(self, serve_setup):
        ckpt_dir, _, _ = serve_setup
        service = PlacementService(PolicyRegistry(ckpt_dir), config=ServeConfig(workers=1))
        entered, release = threading.Event(), threading.Event()
        handle = service.handle

        def gated(request):
            entered.set()
            assert release.wait(timeout=30.0), "test gate never opened"
            return handle(request)

        service.handle = gated
        srv = PlacementServer(service, port=0, request_timeout=0.2).start()
        try:
            body = {"graph": graph_to_dict(tiny_graph())}
            first = []
            holder = threading.Thread(target=lambda: first.append(post(srv, "/place", body)))
            holder.start()
            assert entered.wait(timeout=30.0)  # the only slot is taken
            status, doc = post(srv, "/place", body)
            assert status == 504 and doc["error"] == "timeout"
            release.set()
            holder.join(timeout=30.0)
            assert first[0][0] == 200
        finally:
            release.set()
            srv.shutdown()


def get_error(server, path):
    try:
        with urllib.request.urlopen(server.address + path, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())
