#!/usr/bin/env python
"""Concurrent end-to-end smoke test for ``repro.serve`` (``make serve-smoke``).

Builds a two-policy checkpoint directory, starts the HTTP placement
server on an ephemeral port, and drives it the way a real deployment
gets driven:

* 8 client threads issue 64 requests (mixed graph documents, workload
  names and refinement budgets; half of them graphs no earlier request
  sent) and every response is checked for a policy id, a positive
  latency and a complete placement;
* each policy's parameter archive (``.npz``) is read exactly once for
  the whole run: never-seen graphs bind to the loaded parameters;
* responses with identical fingerprints must carry identical placements
  (the cache-consistency contract), and the duplicate-heavy mix must
  produce a non-zero cache hit rate;
* every response must carry a non-empty ``trace_id``, unique across the
  run (one trace per request), and after shutdown the recorded ``span``
  events must form a single-rooted tree per trace — one ``http.request``
  root per ``/place`` request, no orphan parents;
* one ``GET /metrics`` scrape must return valid Prometheus text
  exposition covering the ``serve.*`` and ``env.*`` metrics;
* a deliberately undersized second service (1 worker, queue of 1) is
  flooded to prove overload surfaces as the typed 503 ``overloaded``
  error immediately — never a hang or silent queueing;
* a thundering herd of 64 identical concurrent requests against a cold
  cache must compute exactly once: one ``miss``, every other response
  ``coalesced`` (waited on the in-flight computation's cache entry) or
  ``hit``, all carrying the identical placement.

Exits non-zero on any violation, so ``make test`` catches a serving
regression before a user does. See docs/serving.md for the guide.
"""

from __future__ import annotations

import collections
import json
import os
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

import repro.core.checkpoint as checkpoint  # noqa: E402
from repro.config import fast_profile  # noqa: E402
from repro.core import save_agent  # noqa: E402
from repro.core.search import build_agent  # noqa: E402
from repro.graph import CompGraph, OpNode, graph_to_dict  # noqa: E402
from repro.serve import (  # noqa: E402
    PlacementServer,
    PlacementService,
    PolicyRegistry,
    RequestQueue,
    ServeConfig,
)
from repro.sim import ClusterSpec  # noqa: E402
from repro.telemetry import read_events, start_run  # noqa: E402

N_THREADS = 8
N_REQUESTS = 64


def tiny_graph() -> CompGraph:
    """A 6-op diamond DAG (mirrors the unit-test workload)."""
    g = CompGraph("tiny")
    g.add_node(OpNode("in", "Input", (4, 8), cpu_only=True))
    g.add_node(OpNode("a", "MatMul", (4, 16), flops=1e6, param_bytes=512), inputs=["in"])
    g.add_node(OpNode("b", "ReLU", (4, 16), flops=64), inputs=["a"])
    g.add_node(OpNode("c", "MatMul", (4, 16), flops=1e6, param_bytes=1024), inputs=["a"])
    g.add_node(OpNode("d", "Concat", (4, 32)), inputs=["b", "c"])
    g.add_node(OpNode("loss", "CrossEntropy", (1,), flops=128), inputs=["d"])
    return g


def chain_graph(name: str = "chain", length: int = 5) -> CompGraph:
    g = CompGraph(name)
    g.add_node(OpNode("in", "Input", (4, 8), cpu_only=True))
    prev = "in"
    for i in range(length):
        node = f"op{i}"
        g.add_node(
            OpNode(node, "MatMul", (4, 16), flops=1e6, param_bytes=256),
            inputs=[prev],
        )
        prev = node
    g.add_node(OpNode("loss", "CrossEntropy", (1,), flops=64), inputs=[prev])
    return g


def build_checkpoints(ckpt_dir: str, cluster: ClusterSpec) -> None:
    cfg = fast_profile(seed=0)
    for stem, graph in (("mars__tiny", tiny_graph()), ("mars__chain", chain_graph())):
        agent, _ = build_agent("mars_no_pretrain", graph, cluster, cfg, None)
        save_agent(
            os.path.join(ckpt_dir, stem), agent, "mars",
            workload=graph.name, config=cfg,
        )


def post(url: str, doc: dict, timeout: float = 60.0):
    req = urllib.request.Request(
        url + "/place",
        data=json.dumps(doc).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def fail(message: str) -> None:
    print(f"serve-smoke FAILED: {message}", file=sys.stderr)
    sys.exit(1)


def count_npz_reads() -> collections.Counter:
    """Count checkpoint parameter reads per policy from now on."""
    reads: collections.Counter = collections.Counter()
    real = checkpoint.load_state_dict

    def counting(path):
        reads[os.path.basename(path)] += 1
        return real(path)

    checkpoint.load_state_dict = counting
    return reads


def check_npz_reads(reads: collections.Counter, when: str) -> None:
    expected = {"mars__tiny": 1, "mars__chain": 1}
    if dict(reads) != expected:
        fail(f"{when}: checkpoint reads per policy {dict(reads)}, expected {expected}")
    print(f"serve-smoke: {when}: each policy's parameters read once")


def never_seen_body(thread_idx: int, i: int) -> dict:
    """A graph no other request sends, named for one of the two policies."""
    name = ("tiny", "chain")[thread_idx % 2]
    length = 2 + thread_idx * N_REQUESTS // N_THREADS + i
    return {"graph": graph_to_dict(chain_graph(name, length)), "budget": 0}


def concurrent_traffic(url: str) -> None:
    """64 mixed requests from 8 threads; verify every response invariant.
    Every other request of each thread sends a never-seen graph."""
    bodies = [
        {"graph": graph_to_dict(tiny_graph()), "budget": 0},
        {"graph": graph_to_dict(tiny_graph()), "budget": 4},
        {"graph": graph_to_dict(chain_graph()), "budget": 0},
        {"graph": graph_to_dict(chain_graph()), "budget": 2},
    ]
    results, errors = [], []
    lock = threading.Lock()

    def client(thread_idx: int) -> None:
        for i in range(N_REQUESTS // N_THREADS):
            if i % 2:
                body = never_seen_body(thread_idx, i)
            else:
                body = bodies[(thread_idx + i) % len(bodies)]
            try:
                status, doc = post(url, body)
            except Exception as exc:  # noqa: BLE001 - smoke must report, not crash
                with lock:
                    errors.append(f"thread {thread_idx}: {exc!r}")
                return
            with lock:
                results.append((status, doc))

    threads = [threading.Thread(target=client, args=(t,)) for t in range(N_THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120.0)
    if errors:
        fail("; ".join(errors[:3]))
    if len(results) != N_REQUESTS:
        fail(f"expected {N_REQUESTS} responses, got {len(results)}")

    by_fingerprint = {}
    hits = 0
    trace_ids = []
    for status, doc in results:
        if status != 200:
            fail(f"request failed with {status}: {doc}")
        if not doc.get("policy_id"):
            fail(f"response missing policy id: {doc}")
        if not (doc.get("latency_ms", 0) > 0):
            fail(f"response missing positive latency: {doc}")
        if not doc.get("placement"):
            fail(f"response missing placement: {doc}")
        if not doc.get("trace_id"):
            fail(f"response missing trace_id: {doc}")
        trace_ids.append(doc["trace_id"])
        if doc["cache"] == "hit":
            hits += 1
        key = (doc["fingerprint"], doc["budget"])
        seen = by_fingerprint.setdefault(key, doc["placement"])
        if seen != doc["placement"]:
            fail(f"divergent placements for identical fingerprint {key}")
    if hits == 0:
        fail("no cache hits across 64 requests with duplicate graphs")
    if len(set(trace_ids)) != len(trace_ids):
        fail("trace_ids are not unique across requests (traces merged)")
    print(
        f"serve-smoke: {len(results)} requests over {N_THREADS} threads, "
        f"{hits} cache hits, {len(by_fingerprint)} distinct (fingerprint, budget) keys"
    )


def scrape_metrics(url: str) -> None:
    """One /metrics scrape: valid exposition text, serve.* + env.* present."""
    import re

    with urllib.request.urlopen(url + "/metrics", timeout=30.0) as resp:
        status = resp.status
        ctype = resp.headers.get("Content-Type", "")
        text = resp.read().decode("utf-8")
    if status != 200:
        fail(f"/metrics returned {status}")
    if not ctype.startswith("text/plain"):
        fail(f"/metrics Content-Type {ctype!r} is not text exposition")
    sample_re = re.compile(
        r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9eE+.naifNIF]+$"
    )
    names = set()
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line or line.startswith("# HELP ") or line.startswith("# TYPE "):
            continue
        if not sample_re.match(line):
            fail(f"/metrics line {lineno} is not valid exposition: {line!r}")
        names.add(line.split("{", 1)[0].split(" ", 1)[0])
    for prefix in ("serve_", "env_"):
        if not any(name.startswith(prefix) for name in names):
            fail(f"/metrics has no {prefix}* metrics: {sorted(names)[:10]}")
    print(f"serve-smoke: /metrics OK ({len(names)} metric sample names)")


def check_span_tree(run_dir: str) -> None:
    """Every recorded trace must be a single-rooted tree with no orphans."""
    traces = {}
    for event in read_events(run_dir, types=("span",)):
        traces.setdefault(event["trace_id"], []).append(event)
    if not traces:
        fail("no span events recorded by a traced serve run")
    http_roots = 0
    for trace_id, spans in traces.items():
        span_ids = {s["span_id"] for s in spans}
        roots = [s for s in spans if s["parent_id"] == ""]
        if len(roots) != 1:
            fail(
                f"trace {trace_id} has {len(roots)} roots "
                f"({[s['name'] for s in roots]}), expected exactly 1"
            )
        for s in spans:
            if s["parent_id"] and s["parent_id"] not in span_ids:
                fail(
                    f"orphan span {s['name']} in trace {trace_id}: "
                    f"parent {s['parent_id']} was never recorded"
                )
        if roots[0]["name"] == "http.request":
            http_roots += 1
    if http_roots != N_REQUESTS:
        fail(
            f"expected {N_REQUESTS} http.request-rooted traces, "
            f"got {http_roots} (of {len(traces)} traces)"
        )
    n_spans = sum(len(spans) for spans in traces.values())
    print(
        f"serve-smoke: span trees OK ({n_spans} spans, {len(traces)} traces, "
        f"{http_roots} request roots)"
    )


def overload_traffic(registry: PolicyRegistry) -> None:
    """Flood an undersized service; overload must be a fast typed 503."""
    service = PlacementService(
        registry, config=ServeConfig(workers=1, max_queue=1, max_batch=1)
    )
    server = PlacementServer(service, port=0, queue=RequestQueue(service)).start()
    try:
        body = {"graph": graph_to_dict(tiny_graph()), "budget": 8, "use_cache": False}
        statuses, durations = [], []
        lock = threading.Lock()

        def client() -> None:
            start = time.perf_counter()
            status, doc = post(server.address, body)
            with lock:
                statuses.append((status, doc.get("error", "")))
                durations.append(time.perf_counter() - start)

        threads = [threading.Thread(target=client) for _ in range(N_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)

        rejected = [s for s in statuses if s == (503, "overloaded")]
        served = [s for s, _ in statuses if s == 200]
        if not rejected:
            fail(f"flooding a queue of 1 produced no 503 overloaded: {statuses}")
        if not served:
            fail("overloaded service served nothing at all")
        if max(durations) > 60.0:
            fail(f"a flooded request took {max(durations):.1f}s — that is a hang")
        print(
            f"serve-smoke: overload path OK "
            f"({len(served)} served, {len(rejected)} typed 503 rejections)"
        )
    finally:
        server.shutdown()


def thundering_herd(registry: PolicyRegistry) -> None:
    """64 identical concurrent requests must compute exactly once.

    The cache's pending entries guarantee this structurally: the first
    request to reach the service computes and everyone else either waits
    on its pending entry (``coalesced``) or lands after the result is
    cached (``hit``) — regardless of thread interleaving.
    """
    service = PlacementService(registry, config=ServeConfig(workers=4, max_queue=128))
    server = PlacementServer(service, port=0, queue=RequestQueue(service)).start()
    try:
        body = {"graph": graph_to_dict(chain_graph("herd", 7)), "budget": 8}
        barrier = threading.Barrier(N_REQUESTS)
        results, errors = [], []
        lock = threading.Lock()

        def client() -> None:
            try:
                barrier.wait(timeout=60.0)
                status, doc = post(server.address, body, timeout=120.0)
            except Exception as exc:  # noqa: BLE001 - smoke must report, not crash
                with lock:
                    errors.append(repr(exc))
                return
            with lock:
                results.append((status, doc))

        threads = [threading.Thread(target=client) for _ in range(N_REQUESTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
        if errors:
            fail("herd client errors: " + "; ".join(errors[:3]))
        if len(results) != N_REQUESTS:
            fail(f"herd expected {N_REQUESTS} responses, got {len(results)}")

        caches = [doc["cache"] for _, doc in results]
        placements = [doc["placement"] for _, doc in results]
        for status, doc in results:
            if status != 200:
                fail(f"herd request failed with {status}: {doc}")
        misses = caches.count("miss")
        if misses != 1:
            fail(f"herd of {N_REQUESTS} identical requests computed {misses} times")
        stray = set(caches) - {"miss", "hit", "coalesced"}
        if stray:
            fail(f"herd produced unexpected cache states: {sorted(stray)}")
        if any(p != placements[0] for p in placements):
            fail("herd responses disagree on the placement")
        print(
            f"serve-smoke: thundering herd OK ({N_REQUESTS} identical requests -> "
            f"1 compute, {caches.count('coalesced')} coalesced, "
            f"{caches.count('hit')} hits)"
        )
    finally:
        server.shutdown()


def run() -> int:
    cluster = ClusterSpec.default()
    with tempfile.TemporaryDirectory() as ckpt_dir, \
            tempfile.TemporaryDirectory() as tel_dir:
        build_checkpoints(ckpt_dir, cluster)
        reads = count_npz_reads()
        registry = PolicyRegistry(ckpt_dir)
        if len(registry) != 2:
            fail(f"expected a 2-policy registry, got {len(registry)}")
        # File-backed session so request spans are recorded and the span
        # trees can be checked after shutdown.
        tel = start_run("serve-smoke", tel_dir)
        try:
            service = PlacementService(
                registry, config=ServeConfig(workers=4, max_queue=128),
                telemetry=tel,
            )
            server = PlacementServer(
                service, port=0, queue=RequestQueue(service)
            ).start()
            try:
                concurrent_traffic(server.address)
                check_npz_reads(reads, "concurrent traffic")
                scrape_metrics(server.address)
            finally:
                server.shutdown()
        finally:
            tel.close()
        check_span_tree(tel.run_dir)
        overload_traffic(registry)
        thundering_herd(registry)
        check_npz_reads(reads, "whole run")
    print("serve-smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(run())
