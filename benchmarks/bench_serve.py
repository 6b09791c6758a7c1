"""Benchmarks for the placement service (``repro.serve``).

Times the request paths a deployment actually sees — cache hit, greedy
miss (one argmax decode + one simulation), refined miss (greedy +
``budget`` sampled candidates through ``evaluate_batch``) and a greedy
miss on a never-seen graph (a new fingerprint on every call, so the
registry binds the graph and the service builds its environment) — the
two registry layers under a never-seen graph (``policy_load``: one
checkpoint read + build, once per policy; ``graph_bind``: binding the
loaded parameters to another graph) — plus a **duplicate-heavy open-loop load test**: thundering herds of
identical requests fired on a fixed arrival schedule (open loop — the
load does not wait for responses) through the admission gate
(``PlacementService.submit``) from a bounded client pool, recording
how many requests computed, coalesced or hit the cache and the
client-perceived latency. Two entry points:

* ``pytest benchmarks/bench_serve.py --benchmark-only`` — the
  pytest-benchmark harness (calibrated statistics, nice terminal table);
* ``PYTHONPATH=src python benchmarks/bench_serve.py`` — a standalone
  runner that times the same paths with ``time.perf_counter`` and writes
  ``benchmarks/BENCH_serve.json``, the machine-readable record the
  cross-PR perf trajectory accumulates (docs/performance.md).
  ``--smoke`` runs a shrunken herd load with correctness asserts and no
  JSON write (wired into ``make bench-smoke``).
"""

import json
import os
import platform
import statistics
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

JSON_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "BENCH_serve.json")

from repro.config import fast_profile
from repro.core import load_agent, save_agent
from repro.core.search import build_agent
from repro.graph import CompGraph, OpNode, graph_to_dict
from repro.serve import (
    PlacementRequest,
    PlacementService,
    PolicyRegistry,
    ServeConfig,
    ServiceOverloaded,
)
from repro.sim import ClusterSpec
from repro.workloads import build_resnet50, build_vgg16

CLUSTER = ClusterSpec.default()


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    ckpt_dir = tmp_path_factory.mktemp("serve-bench")
    graph = build_vgg16(scale=0.25, batch_size=4)
    cfg = fast_profile(seed=0)
    agent, _ = build_agent("mars_no_pretrain", graph, CLUSTER, cfg, None)
    save_agent(str(ckpt_dir / "mars__vgg"), agent, "mars", workload=graph.name, config=cfg)
    svc = PlacementService(PolicyRegistry(str(ckpt_dir)), config=ServeConfig())
    # Warm the agent/env caches so the benchmarks time steady state.
    svc.handle(PlacementRequest(graph=graph_to_dict(graph)))
    yield svc
    svc.close()


@pytest.fixture(scope="module")
def graph_doc():
    return graph_to_dict(build_vgg16(scale=0.25, batch_size=4))


def test_serve_cache_hit(benchmark, service, graph_doc):
    """The steady-state path for repeated graphs: one hash of the
    document and a dictionary lookup, no graph build."""
    response = benchmark(
        lambda: service.handle(PlacementRequest(graph=graph_doc))
    )
    assert response.cache == "hit"


def test_serve_greedy_miss(benchmark, service, graph_doc):
    """Uncached greedy request: hash + parse + decode + one simulation."""
    response = benchmark(
        lambda: service.handle(PlacementRequest(graph=graph_doc, use_cache=False))
    )
    assert response.cache == "miss"
    assert response.candidates_evaluated == 1


def test_serve_refined_miss(benchmark, service, graph_doc):
    """Uncached request with an 8-candidate refinement budget."""
    response = benchmark(
        lambda: service.handle(
            PlacementRequest(graph=graph_doc, budget=8, use_cache=False)
        )
    )
    assert response.candidates_evaluated == 9


def test_fingerprint_only(benchmark, graph_doc):
    """The document hash alone, for scale context (most of a cache hit)."""
    from repro.graph import document_fingerprint

    fp, _ = benchmark(document_fingerprint, graph_doc)
    assert len(fp) == 64


# ----------------------------------------------------------------------
# Standalone runner: same paths, plain perf_counter, JSON output
# ----------------------------------------------------------------------
def _time_path(fn, rounds: int):
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return {"best_s": float(min(times)), "median_s": float(statistics.median(times))}


# ----------------------------------------------------------------------
# Duplicate-heavy open-loop load test
# ----------------------------------------------------------------------
def _dup_graph(index: int, length: int):
    """Small distinct chain graphs — the duplicate-heavy request mix."""
    g = CompGraph(f"dup{index}")
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


def _percentile(values, pct: float) -> float:
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(round(pct / 100.0 * (len(ordered) - 1)))))
    return float(ordered[rank])


def run_duplicate_heavy(smoke: bool = False):
    """Fire ``waves`` herds of ``herd`` identical requests on a fixed
    open-loop schedule (arrivals never wait for responses) and measure
    client-perceived latency. ``ttl`` is shorter than a key's revisit
    interval, so every wave starts cold — the thundering-herd scenario
    coalescing exists for. A pool of ``herd`` client threads makes the
    calls; an arrival the pool cannot take at once waits in it, and
    that wait counts in its latency. Returns the BENCH_serve.json row."""
    if smoke:
        params = dict(waves=6, herd=12, interval_s=0.06, ttl=0.03, budget=8, workers=2)
        lengths = (5, 6)
    else:
        params = dict(waves=24, herd=24, interval_s=0.08, ttl=0.05, budget=16, workers=6)
        lengths = (6, 7)
    waves, herd, budget = params["waves"], params["herd"], params["budget"]
    docs = [graph_to_dict(_dup_graph(i, n)) for i, n in enumerate(lengths)]

    cfg = fast_profile(seed=0)
    anchor = _dup_graph(0, lengths[0])
    with tempfile.TemporaryDirectory(prefix="serve-herd-") as ckpt_dir:
        agent, _ = build_agent("mars_no_pretrain", anchor, CLUSTER, cfg, None)
        save_agent(
            os.path.join(ckpt_dir, "mars__dup"), agent, "mars",
            workload=anchor.name, config=cfg,
        )
        config = ServeConfig(workers=params["workers"], max_queue=4096, cache_ttl=params["ttl"])
        service = PlacementService(PolicyRegistry(ckpt_dir), config=config)

        def call(doc, arrival):
            """One client call: (cache state or failure, latency in ms)."""
            try:
                response = service.submit(PlacementRequest(graph=doc, budget=budget))
            except ServiceOverloaded:
                return "rejected", 0.0
            except Exception:  # noqa: BLE001 - counted as an error
                return "error", 0.0
            return response.cache, (time.perf_counter() - arrival) * 1e3

        try:
            for doc in docs:  # build agents/envs outside the timed window
                service.submit(PlacementRequest(graph=doc, budget=budget))
            time.sleep(params["ttl"] * 2)  # let the warmup entries expire
            with ThreadPoolExecutor(max_workers=herd) as pool:
                futures = []
                t0 = time.perf_counter()
                for wave in range(waves):
                    delay = t0 + wave * params["interval_s"] - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                    doc = docs[wave % len(docs)]
                    for _ in range(herd):
                        futures.append(pool.submit(call, doc, time.perf_counter()))
                outcomes = [f.result(timeout=120.0) for f in futures]
        finally:
            service.close()

    states = [state for state, _ in outcomes]
    assert "error" not in states, f"{states.count('error')} herd requests failed"
    assert "rejected" not in states, f"{states.count('rejected')} herd requests rejected"
    assert "coalesced" in states, "no request ever coalesced"
    latencies = [ms for _, ms in outcomes]
    row = {
        "herd": int(herd),
        "waves": int(waves),
        "interval_ms": float(params["interval_s"] * 1e3),
        "budget": int(budget),
        "workers": int(params["workers"]),
        "cache_ttl_s": float(params["ttl"]),
        "requests": len(outcomes),
        "computes": states.count("miss"),
        "coalesced": states.count("coalesced"),
        "hits": states.count("hit"),
        "p50_ms": _percentile(latencies, 50),
        "p99_ms": _percentile(latencies, 99),
        "mean_ms": float(statistics.fmean(latencies)),
    }
    print(f"\nduplicate-heavy open-loop load ({waves} waves x {herd} dup requests, "
          f"{row['interval_ms']:.0f} ms interval, budget={budget}, "
          f"{row['workers']} slots)")
    print(f"{'computes':>9} {'coalesced':>10} {'hits':>6} {'p50_ms':>9} {'p99_ms':>9}")
    print(f"{row['computes']:>9} {row['coalesced']:>10} {row['hits']:>6} "
          f"{row['p50_ms']:>9.2f} {row['p99_ms']:>9.2f}")
    return row


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=20, help="timing repetitions per path")
    parser.add_argument("--budget", type=int, default=8, help="refinement budget for the refined path")
    parser.add_argument("--json", default=JSON_PATH, help="output path for the JSON record")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="quick correctness pass of the herd comparison, no JSON",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        run_duplicate_heavy(smoke=True)
        print("serve bench smoke OK")
        return 0

    graph = build_vgg16(scale=0.25, batch_size=4)
    graph_doc = graph_to_dict(graph)
    other = build_resnet50(scale=0.25, batch_size=4)
    cfg = fast_profile(seed=0)
    with tempfile.TemporaryDirectory(prefix="serve-bench-") as ckpt_dir:
        agent, _ = build_agent("mars_no_pretrain", graph, CLUSTER, cfg, None)
        save_agent(
            os.path.join(ckpt_dir, "mars__vgg"), agent, "mars",
            workload=graph.name, config=cfg,
        )
        registry = PolicyRegistry(ckpt_dir)
        svc = PlacementService(registry, config=ServeConfig())
        # One renamed copy of the graph per call: same content, new
        # fingerprint, built before the clock starts.
        never_seen = iter(
            [dict(graph_doc, name=f"{graph.name}-{i}") for i in range(args.rounds)]
        )
        spec = registry.get("mars__vgg")
        try:
            # Warm the agent/env caches so timings see steady state.
            svc.handle(PlacementRequest(graph=graph_doc))
            params, _ = load_agent(spec.path, graph, CLUSTER)
            paths = {
                "cache_hit": lambda: svc.handle(PlacementRequest(graph=graph_doc)),
                "greedy_miss": lambda: svc.handle(
                    PlacementRequest(graph=graph_doc, use_cache=False)
                ),
                "refined_miss": lambda: svc.handle(
                    PlacementRequest(graph=graph_doc, budget=args.budget, use_cache=False)
                ),
                "never_seen_greedy_miss": lambda: svc.handle(
                    PlacementRequest(graph=next(never_seen))
                ),
                "policy_load": lambda: load_agent(spec.path, graph, CLUSTER),
                "graph_bind": lambda: params.bind(other, CLUSTER),
            }
            results = {name: _time_path(fn, args.rounds) for name, fn in paths.items()}
        finally:
            svc.close()
    print(f"{'path':<24} {'best_ms':>10} {'median_ms':>10}")
    for name, row in results.items():
        print(f"{name:<24} {row['best_s'] * 1e3:>10.3f} {row['median_s'] * 1e3:>10.3f}")
    duplicate_heavy = run_duplicate_heavy(smoke=False)
    doc = {
        "benchmark": "serve",
        "workload": graph.name,
        "ops": int(graph.num_nodes),
        "bind_workload": other.name,
        "bind_ops": int(other.num_nodes),
        "rounds": int(args.rounds),
        "budget": int(args.budget),
        "paths": results,
        "duplicate_heavy": duplicate_heavy,
        "host": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }
    with open(args.json, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
