"""Microbenchmark: incremental vs full makespan re-evaluation.

Measures the `repro.sim.incremental` fast path (docs/performance.md) the
way refinement loops use it: anchor one placement, then re-evaluate many
single-op moves against it. Three numbers matter:

* **per-move speedup** — full ``Scheduler.run_step`` time / incremental
  ``resume_schedule`` time for the same mutated placement (bit-identical
  results are asserted before any timing is trusted);
* **hit rate** — fraction of moves the resume accepts (source-op moves
  and moves whose dirty region exceeds ``max_dirty_fraction`` fall back);
* **end-to-end A/B** — wall time of the same mutation stream through
  ``PlacementEnv.evaluate`` with the fast path on vs off (what
  ``--no-incremental`` toggles on the experiments runner).

Run it directly; results land in ``benchmarks/BENCH_incremental.json``
(the cross-PR perf trajectory — see docs/performance.md for the schema)::

    PYTHONPATH=src python benchmarks/bench_incremental.py
    PYTHONPATH=src python benchmarks/bench_incremental.py --workload gnmt --moves 400
    PYTHONPATH=src python benchmarks/bench_incremental.py --smoke

``--smoke`` shrinks the move count and skips the JSON write: it proves
the resume path end to end (``make test`` wires it in).
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

from repro.graph import CompGraph
from repro.sim import (
    ClusterSpec,
    CostModel,
    IncrementalEvalConfig,
    Placement,
    PlacementEnv,
    Scheduler,
    ScheduleTables,
    build_baseline,
    resume_schedule,
)

JSON_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "BENCH_incremental.json")


def build_graph(workload: str) -> CompGraph:
    if workload == "inception_v3":
        from repro.workloads import build_inception_v3

        return build_inception_v3()
    if workload == "gnmt":
        from repro.workloads import build_gnmt

        return build_gnmt(scale=0.5)
    raise SystemExit(f"unknown workload {workload!r}")


def single_op_moves(anchor: np.ndarray, num_devices: int, count: int, seed: int = 0):
    """``count`` distinct single-op mutations of ``anchor``."""
    rng = np.random.default_rng(seed)
    moves = []
    for _ in range(count):
        devices = anchor.copy()
        op = int(rng.integers(0, len(anchor)))
        devices[op] = (devices[op] + 1 + rng.integers(0, num_devices - 1)) % num_devices
        moves.append(devices)
    return moves


def best_of(fn, rounds: int) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    return best


def check_identical(a, b) -> None:
    if not (
        a.makespan == b.makespan
        and np.array_equal(a.finish_times, b.finish_times)
        and np.array_equal(a.device_busy, b.device_busy)
        and a.comm_time == b.comm_time
        and a.comm_bytes == b.comm_bytes
    ):
        raise AssertionError("incremental result differs from full simulation")


def run(args) -> int:
    graph = build_graph(args.workload)
    cluster = ClusterSpec.default()
    cost_model = CostModel()
    scheduler = Scheduler(cost_model)
    op_times = cost_model.op_time_matrix(graph, cluster)
    config = IncrementalEvalConfig(max_dirty_fraction=args.max_dirty_fraction)
    tables = ScheduleTables(graph, cluster, cost_model, op_times)

    rng = np.random.default_rng(args.seed)
    anchor_env = PlacementEnv(graph, cluster)
    anchor = anchor_env.resolve(rng.integers(0, cluster.num_devices, graph.num_nodes)).devices

    build_start = time.perf_counter()
    baseline = build_baseline(tables, anchor, config)
    build_s = time.perf_counter() - build_start

    moves = single_op_moves(anchor, cluster.num_devices, args.moves, args.seed)
    print(
        f"workload={graph.name} ops={graph.num_nodes} events={baseline.total_events} "
        f"moves={len(moves)} rounds={args.rounds} "
        f"checkpoints={config.checkpoints} max_dirty={config.max_dirty_fraction}"
    )

    speedups, hits = [], 0
    full_times, inc_times = [], []
    for devices in moves:
        placement = Placement(devices, graph, cluster)
        incremental = resume_schedule(baseline, devices, config)
        full = scheduler.run_step(placement, tables=tables)
        if incremental is None:
            continue
        check_identical(incremental, full)
        hits += 1
        t_full = best_of(lambda: scheduler.run_step(placement, tables=tables), args.rounds)
        t_inc = best_of(lambda: resume_schedule(baseline, devices, config), args.rounds)
        full_times.append(t_full)
        inc_times.append(t_inc)
        speedups.append(t_full / t_inc)

    if not speedups:
        print("no incremental hits — nothing to report", file=sys.stderr)
        return 1
    hit_rate = hits / len(moves)
    median_speedup = statistics.median(speedups)
    mean_speedup = statistics.mean(speedups)
    qs = statistics.quantiles(speedups, n=10)
    print(f"{'metric':<26} {'value':>12}")
    print(f"{'hit_rate':<26} {hit_rate:>12.3f}")
    print(f"{'full_median_ms':<26} {statistics.median(full_times) * 1e3:>12.3f}")
    print(f"{'incremental_median_ms':<26} {statistics.median(inc_times) * 1e3:>12.3f}")
    print(f"{'speedup_median':<26} {median_speedup:>11.2f}x")
    print(f"{'speedup_mean':<26} {mean_speedup:>11.2f}x")
    print(f"{'speedup_p10':<26} {qs[0]:>11.2f}x")
    print(f"{'speedup_p90':<26} {qs[-1]:>11.2f}x")
    print(f"{'baseline_build_ms':<26} {build_s * 1e3:>12.3f}")

    # End-to-end A/B: the same move stream through the environment, fast
    # path on vs off (fresh envs; caches would hide the simulation cost).
    def stream(enabled: bool) -> float:
        env = PlacementEnv(
            graph,
            cluster,
            incremental=IncrementalEvalConfig(
                enabled=enabled, max_dirty_fraction=args.max_dirty_fraction
            ),
        )
        env.anchor_incremental(anchor)
        start = time.perf_counter()
        for devices in moves:
            env.evaluate(devices)
        return time.perf_counter() - start

    ab_off = best_of(lambda: stream(False), args.rounds)
    ab_on = best_of(lambda: stream(True), args.rounds)
    print(f"{'env_ab_off_s':<26} {ab_off:>12.4f}")
    print(f"{'env_ab_on_s':<26} {ab_on:>12.4f}")
    print(f"{'env_ab_speedup':<26} {ab_off / ab_on:>11.2f}x")
    print("incremental results bit-identical to full simulation: OK")

    if args.smoke:
        print(f"bench-incremental smoke OK ({hits}/{len(moves)} resumes)")
        return 0

    doc = {
        "benchmark": "incremental",
        "workload": graph.name,
        "ops": int(graph.num_nodes),
        "events": int(baseline.total_events),
        "moves": int(len(moves)),
        "rounds": int(args.rounds),
        "checkpoints": int(config.checkpoints),
        "max_dirty_fraction": float(config.max_dirty_fraction),
        "hit_rate": float(hit_rate),
        "baseline_build_s": float(build_s),
        "full_median_s": float(statistics.median(full_times)),
        "incremental_median_s": float(statistics.median(inc_times)),
        "speedup_median": float(median_speedup),
        "speedup_mean": float(mean_speedup),
        "speedup_p10": float(qs[0]),
        "speedup_p90": float(qs[-1]),
        "env_ab_off_s": float(ab_off),
        "env_ab_on_s": float(ab_on),
        "env_ab_speedup": float(ab_off / ab_on),
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["inception_v3", "gnmt"], default="inception_v3")
    parser.add_argument("--moves", type=int, default=200, help="single-op mutations to time")
    parser.add_argument("--rounds", type=int, default=5, help="timing repetitions (best-of)")
    parser.add_argument("--max-dirty-fraction", type=float, default=0.75)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", default=JSON_PATH, help="output path for the JSON record")
    parser.add_argument("--smoke", action="store_true", help="quick correctness pass, no JSON")
    args = parser.parse_args(argv)
    if args.smoke:
        args.moves = min(args.moves, 30)
        args.rounds = 1
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
