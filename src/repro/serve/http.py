"""Stdlib JSON-over-HTTP endpoint for the placement service.

Routes (all JSON; see docs/serving.md for the full schema):

* ``POST /place``    — body is a :class:`PlacementRequest` document;
  200 with a :class:`PlacementResponse` body, or the typed error status
  (400 bad request, 404 no matching policy, 503 overloaded/closed, 504
  no compute slot in time) with ``{"error": code, "message": ...}``.
* ``GET /healthz``   — liveness + uptime/pid + queue depth + cache/policy
  counts + SLO status (p99 latency, error burn rate; docs/serving.md §5).
* ``GET /metrics``   — live Prometheus text exposition of the service's
  metrics registry (``serve.*``, ``env.*``, ...).
* ``GET /policies``  — the registry's servable policies.
* ``POST /reload``   — rescan the checkpoint directory (hot reload) and
  clear the result cache.

Built on ``http.server.ThreadingHTTPServer``: each connection gets a
handler thread, which serves its ``/place`` requests itself through
:meth:`PlacementService.submit`; admission control lives in the
service, not in HTTP.
"""

from __future__ import annotations

import json
import os
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from repro.serve.service import PlacementRequest, PlacementService, ServiceError
from repro.telemetry import SCHEMA_VERSION
from repro.telemetry.prometheus import render_prometheus
from repro.telemetry.tracing import span
from repro.utils.logging import get_logger

logger = get_logger("repro.serve.http")

__all__ = ["PlacementServer"]

#: Refuse request bodies beyond this many bytes (a graph document of
#: ~100k ops fits comfortably; this is DoS protection, not a quota).
MAX_BODY_BYTES = 32 * 1024 * 1024


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-serve/1.0"
    # Headers and body go out in two sends. With Nagle on, the body waits
    # for the ACK of the headers, which a keep-alive client delays ~40 ms.
    disable_nagle_algorithm = True

    # The ThreadingHTTPServer instance carries .service/.request_timeout.
    def _send_json(self, status: int, doc: dict) -> None:
        body = json.dumps(doc, default=float).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error(self, status: int, code: str, message: str) -> None:
        self._send_json(status, {"error": code, "message": message})

    def log_message(self, fmt: str, *args) -> None:  # quiet by default
        logger.debug("%s %s", self.address_string(), fmt % args)

    # ------------------------------------------------------------------
    def do_GET(self) -> None:
        if self.path == "/healthz":
            service: PlacementService = self.server.service
            self._send_json(
                200,
                {
                    "status": "draining" if service.closed else "ok",
                    "uptime_s": time.perf_counter() - self.server.started_perf,
                    "pid": os.getpid(),
                    "schema_version": SCHEMA_VERSION,
                    "policies": len(service.registry),
                    "queue_depth": service.queue_depth,
                    "cache": service.cache.stats.to_dict(),
                    "slo": service.watchdog.slo_status(),
                },
            )
        elif self.path == "/metrics":
            snapshot = self.server.service._tel().metrics.snapshot()
            body = render_prometheus(snapshot).encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "text/plain; version=0.0.4")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        elif self.path == "/policies":
            self._send_json(
                200,
                {"policies": [s.to_json() for s in self.server.service.registry.policies()]},
            )
        else:
            self._send_error(404, "not_found", f"unknown path {self.path!r}")

    def do_POST(self) -> None:
        # Always consume the body (even for routes that ignore it) so a
        # keep-alive connection is never left with unread bytes.
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            length = -1
        if length < 0 or length > MAX_BODY_BYTES:
            self._send_error(400, "bad_request", "missing or oversized request body")
            return
        body = self.rfile.read(length) if length else b""
        if self.path == "/reload":
            n = self.server.service.registry.refresh()
            cleared = self.server.service.cache.clear()
            self._send_json(200, {"policies": n, "cache_entries_cleared": cleared})
            return
        if self.path != "/place":
            self._send_error(404, "not_found", f"unknown path {self.path!r}")
            return
        if not body:
            self._send_error(400, "bad_request", "missing request body")
            return
        try:
            doc = json.loads(body)
            request = PlacementRequest.from_json(doc)
            service: PlacementService = self.server.service
            # Root span for the whole request path; the slot wait and the
            # service's spans, on this same thread, nest under it.
            with span("http.request", telemetry=service._tel(), new_trace=True,
                      path=self.path):
                response = service.submit(request, timeout=self.server.request_timeout)
        except ServiceError as exc:
            self._send_error(exc.status, exc.code, str(exc))
            return
        except json.JSONDecodeError as exc:
            self._send_error(400, "bad_request", f"body is not valid JSON: {exc}")
            return
        self._send_json(200, response.to_json())


class _HTTPServer(ThreadingHTTPServer):
    # TCPServer's default accept backlog of 5 resets connections when a
    # thundering herd connects at once — exactly the traffic the serve
    # stack is built to absorb. Admission control (ServiceOverloaded),
    # not the kernel backlog, is the intended overload surface.
    request_queue_size = 128


class PlacementServer:
    """Owns the HTTP server and (optionally) a server thread."""

    def __init__(
        self,
        service: PlacementService,
        host: str = "127.0.0.1",
        port: int = 8080,
        request_timeout: float = 120.0,
    ):
        self.service = service
        self._httpd = _HTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.service = service
        self._httpd.request_timeout = request_timeout
        self._httpd.started_perf = time.perf_counter()
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    def start(self) -> "PlacementServer":
        """Serve on a background thread (tests, smoke harnesses)."""
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="serve-http", daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI does this)."""
        self._httpd.serve_forever()

    def shutdown(self) -> None:
        """Stop accepting connections, then close the service: it finishes
        every admitted request and releases its envs."""
        self._httpd.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self._httpd.server_close()
        self.service.close()

    def __enter__(self) -> "PlacementServer":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
