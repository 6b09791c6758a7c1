"""Microbenchmark: batched vs sequential placement evaluation.

Times a 10-sample RL rollout (the paper's ``samples_per_policy``) through
the environment three ways on Inception-V3/GNMT-sized graphs:

* ``sequential`` — ``[env.evaluate(a) for a in batch]`` (the old hot path),
* ``batch/serial`` — ``evaluate_batch`` with the deterministic serial
  fallback (measures the dedupe-only win),
* ``batch/pool`` — ``evaluate_batch`` over the process pool.

Every mode is verified to produce bit-identical results before timings
are reported. Run it directly::

    PYTHONPATH=src python benchmarks/bench_batch_eval.py
    PYTHONPATH=src python benchmarks/bench_batch_eval.py --workload gnmt --workers 8
    PYTHONPATH=src python benchmarks/bench_batch_eval.py --smoke   # make bench-smoke

``--smoke`` builds a tiny graph and forces a 2-worker pool: no timing
assertions, it just proves the pool path works end to end (it is wired
into ``make test`` for exactly that purpose).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time

import numpy as np

from repro.graph import CompGraph, OpNode
from repro.sim import BatchEvalConfig, ClusterSpec, PlacementEnv

JSON_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "BENCH_batch_eval.json")


def build_graph(workload: str) -> CompGraph:
    if workload == "inception_v3":
        from repro.workloads import build_inception_v3

        return build_inception_v3()
    if workload == "gnmt":
        from repro.workloads import build_gnmt

        return build_gnmt(scale=0.5)
    if workload == "tiny":
        return tiny_layered_graph()
    raise SystemExit(f"unknown workload {workload!r}")


def tiny_layered_graph(layers: int = 8, width: int = 4) -> CompGraph:
    """A small layered DAG — enough structure to exercise the scheduler."""
    g = CompGraph("tiny-layered")
    g.add_node(OpNode("in", "Input", (4, 8), cpu_only=True))
    prev = ["in"]
    for layer in range(layers):
        names = []
        for j in range(width):
            name = f"l{layer}/op{j}"
            g.add_node(
                OpNode(name, "MatMul", (4, 32), flops=1e7, param_bytes=4096),
                inputs=prev if j == 0 else [prev[0], f"l{layer}/op{j - 1}"],
            )
            names.append(name)
        prev = names
    g.add_node(OpNode("loss", "CrossEntropy", (1,), flops=128), inputs=prev)
    return g


def sample_batches(graph, cluster, batches: int, samples: int, seed: int = 0):
    """``batches`` rollouts of ``samples`` random placements, with one
    in-batch duplicate each (policies re-propose placements all the time —
    the dedupe path is part of what we are measuring)."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(batches):
        batch = [
            rng.integers(0, cluster.num_devices, graph.num_nodes)
            for _ in range(max(1, samples - 1))
        ]
        batch.append(batch[0].copy())
        out.append(batch)
    return out


def time_mode(env_factory, eval_fn, batches, rounds: int):
    """Best-of-``rounds`` seconds to evaluate all ``batches`` on a fresh env."""
    times, reference = [], None
    for _ in range(rounds):
        env = env_factory()
        start = time.perf_counter()
        results = [eval_fn(env, batch) for batch in batches]
        times.append(time.perf_counter() - start)
        flat = [r.per_step_time for rs in results for r in rs]
        if reference is None:
            reference = flat
        elif flat != reference:
            raise AssertionError("non-deterministic evaluation across rounds")
        env.close_pool()
    return min(times), statistics.median(times), reference


def run_benchmark(args) -> int:
    graph = build_graph(args.workload)
    cluster = ClusterSpec.default()
    batches = sample_batches(graph, cluster, args.batches, args.samples)
    print(
        f"workload={graph.name} ops={graph.num_nodes} "
        f"batches={args.batches} samples/batch={args.samples} workers={args.workers}"
    )

    def sequential(env, batch):
        return [env.evaluate(a) for a in batch]

    def batched(env, batch):
        return env.evaluate_batch(batch)

    pool_cfg = BatchEvalConfig(
        mode="process", max_workers=args.workers, min_parallel=1, min_ops_parallel=0
    )
    modes = [
        ("sequential", lambda: PlacementEnv(graph, cluster), sequential),
        ("batch/serial", lambda: PlacementEnv(graph, cluster, batch=BatchEvalConfig(mode="serial")), batched),
        ("batch/pool", lambda: PlacementEnv(graph, cluster, batch=pool_cfg), batched),
    ]

    rows, baseline, reference = [], None, None
    for name, factory, fn in modes:
        best, median, flat = time_mode(factory, fn, batches, args.rounds)
        if reference is None:
            reference = flat
        elif flat != reference:
            raise AssertionError(f"{name} results differ from sequential")
        baseline = baseline or best
        rows.append((name, best, median, baseline / best))
    print(f"{'mode':<14} {'best_s':>10} {'median_s':>10} {'speedup':>8}")
    for name, best, median, speedup in rows:
        print(f"{name:<14} {best:>10.4f} {median:>10.4f} {speedup:>7.2f}x")
    print("all modes bit-identical: OK")
    # Machine-readable record alongside the table — the cross-PR perf
    # trajectory (docs/performance.md, "Reading BENCH_*.json").
    doc = {
        "benchmark": "batch_eval",
        "workload": graph.name,
        "ops": int(graph.num_nodes),
        "batches": int(args.batches),
        "samples_per_batch": int(args.samples),
        "rounds": int(args.rounds),
        "workers": int(args.workers),
        "host": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "modes": {
            name: {
                "best_s": float(best),
                "median_s": float(median),
                "speedup": float(speedup),
            }
            for name, best, median, speedup in rows
        },
    }
    with open(args.json, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.json}")
    return 0


def run_smoke() -> int:
    """Exercise the pool path end to end on a tiny graph (no timings)."""
    graph = tiny_layered_graph()
    cluster = ClusterSpec.default()
    batches = sample_batches(graph, cluster, batches=2, samples=6)
    serial_env = PlacementEnv(graph, cluster, batch=BatchEvalConfig(mode="serial"))
    pool_env = PlacementEnv(
        graph,
        cluster,
        batch=BatchEvalConfig(mode="process", max_workers=2, min_parallel=1, min_ops_parallel=0),
    )
    try:
        for batch in batches:
            serial = serial_env.evaluate_batch(batch)
            pooled = pool_env.evaluate_batch(batch)
            if serial != pooled:
                print("bench-smoke FAILED: pool results differ from serial", file=sys.stderr)
                return 1
        if serial_env.stats != pool_env.stats:
            print("bench-smoke FAILED: stats diverged", file=sys.stderr)
            return 1
    finally:
        pool_env.close_pool()
    print(
        f"bench-smoke OK: {graph.num_nodes}-op graph, "
        f"{sum(len(b) for b in batches)} evaluations, pool == serial"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["inception_v3", "gnmt", "tiny"], default="inception_v3")
    parser.add_argument("--batches", type=int, default=20, help="rollouts per round")
    parser.add_argument("--samples", type=int, default=10, help="placements per rollout")
    parser.add_argument("--rounds", type=int, default=3, help="timing repetitions (best-of)")
    parser.add_argument("--workers", type=int, default=None, help="pool size (default: cpu-aware)")
    parser.add_argument("--json", default=JSON_PATH, help="output path for the JSON record")
    parser.add_argument("--smoke", action="store_true", help="tiny graph, 2-worker pool, no timings")
    args = parser.parse_args(argv)
    if args.smoke:
        return run_smoke()
    if args.workers is None:
        args.workers = BatchEvalConfig().resolved_workers()
    return run_benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
