"""Microbenchmark: span-tracing overhead on the evaluation hot paths.

Measures what `repro.telemetry.tracing` costs where it matters — a
`PlacementEnv.evaluate` stream of single-op moves (a refinement loop's
inner loop) and `PlacementEnv.evaluate_batch` — with tracing **off** (no
active trace: every `span()` call observes its ``profile.<path>``
histogram and emits no event) vs **on** (a live root span, so each
evaluation also emits one schema-versioned ``span`` event into a
file-backed run directory).

Both arms run against a file-backed telemetry session, which writes
events, so the *only* delta between them is the tracing machinery
itself: span ids + a wall-clock read + one extra JSONL event per
evaluation or batch. The budget is **<3% overhead** on both the
evaluate path and the batch path (docs/performance.md). Each round times
the untraced stream and the traced one back to back, alternating which
goes first (as the end-to-end benchmark's pairs do), so each traced round
is paired with its untraced neighbour and neither arm always pays the
second slot; the overhead is the median of the per-round traced/untraced
ratios, minus one, which keeps drift on a shared host out of the gate.

Run it directly; results land in ``benchmarks/BENCH_telemetry.json``::

    PYTHONPATH=src python benchmarks/bench_telemetry.py
    PYTHONPATH=src python benchmarks/bench_telemetry.py --smoke

``--smoke`` shrinks the stream and skips the JSON write (``make test``
wires it in).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
import time

import numpy as np

from repro.sim import ClusterSpec, PlacementEnv
from repro.telemetry import read_events, start_run
from repro.telemetry.tracing import span

JSON_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "BENCH_telemetry.json"
)


def build_graph(workload: str):
    if workload == "inception_v3":
        from repro.workloads import build_inception_v3

        return build_inception_v3()
    if workload == "gnmt":
        from repro.workloads import build_gnmt

        return build_gnmt(scale=0.5)
    raise SystemExit(f"unknown workload {workload!r}")


def single_op_moves(base: np.ndarray, num_devices: int, count: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    moves = []
    for _ in range(count):
        devices = base.copy()
        op = int(rng.integers(0, len(base)))
        devices[op] = (devices[op] + 1 + rng.integers(0, num_devices - 1)) % num_devices
        moves.append(devices)
    return moves


def paired_overhead(traced, untraced) -> float:
    """Median of the per-round traced/untraced ratios, minus one."""
    return statistics.median(on / off for on, off in zip(traced, untraced)) - 1.0


def run(args) -> int:
    graph = build_graph(args.workload)
    cluster = ClusterSpec.default()
    rng = np.random.default_rng(args.seed)
    base = PlacementEnv(graph, cluster).resolve(
        rng.integers(0, cluster.num_devices, graph.num_nodes)
    ).devices
    moves = single_op_moves(base, cluster.num_devices, args.moves, args.seed)
    batches = [moves[i : i + args.batch] for i in range(0, len(moves), args.batch)]

    with tempfile.TemporaryDirectory() as tmp:
        tel = start_run("bench-telemetry", tmp)
        try:

            def eval_stream(traced: bool) -> float:
                # Fresh env per round: the LRU result cache would otherwise
                # absorb every repeat and we'd time dict lookups.
                env = PlacementEnv(graph, cluster, telemetry=tel)
                if traced:
                    with span("bench.root", telemetry=tel, new_trace=True):
                        start = time.perf_counter()
                        for devices in moves:
                            env.evaluate(devices)
                        return time.perf_counter() - start
                start = time.perf_counter()
                for devices in moves:
                    env.evaluate(devices)
                return time.perf_counter() - start

            def batch_stream(traced: bool) -> float:
                env = PlacementEnv(graph, cluster, telemetry=tel)
                if traced:
                    with span("bench.root", telemetry=tel, new_trace=True):
                        start = time.perf_counter()
                        for batch in batches:
                            env.evaluate_batch(batch)
                        return time.perf_counter() - start
                start = time.perf_counter()
                for batch in batches:
                    env.evaluate_batch(batch)
                return time.perf_counter() - start

            # Warm-up (JIT-free, but page in code paths and the event log).
            eval_stream(False)
            eval_stream(True)

            # Interleave the arms so drift (thermal, page cache) hits both,
            # and alternate which runs first so neither always goes second.
            eval_off, eval_on, batch_off, batch_on = [], [], [], []
            for r in range(args.rounds):
                order = (False, True) if r % 2 == 0 else (True, False)
                for traced in order:
                    (eval_on if traced else eval_off).append(eval_stream(traced))
                for traced in order:
                    (batch_on if traced else batch_off).append(batch_stream(traced))

            spans_written = sum(
                1 for e in read_events(tel.run_dir, types=("span",))
            )
        finally:
            tel.close()

    n = len(moves)
    eval_off_med = statistics.median(eval_off)
    eval_on_med = statistics.median(eval_on)
    batch_off_med = statistics.median(batch_off)
    batch_on_med = statistics.median(batch_on)
    eval_overhead = paired_overhead(eval_on, eval_off)
    batch_overhead = paired_overhead(batch_on, batch_off)

    print(
        f"workload={graph.name} ops={graph.num_nodes} moves={n} "
        f"batch={args.batch} rounds={args.rounds} span_events={spans_written}"
    )
    print(f"{'metric':<28} {'value':>12}")
    print(f"{'evaluate_off_us_per_eval':<28} {eval_off_med / n * 1e6:>12.2f}")
    print(f"{'evaluate_on_us_per_eval':<28} {eval_on_med / n * 1e6:>12.2f}")
    print(f"{'evaluate_overhead':<28} {eval_overhead * 100:>11.2f}%")
    print(f"{'batch_off_us_per_eval':<28} {batch_off_med / n * 1e6:>12.2f}")
    print(f"{'batch_on_us_per_eval':<28} {batch_on_med / n * 1e6:>12.2f}")
    print(f"{'batch_overhead':<28} {batch_overhead * 100:>11.2f}%")
    budget_ok = eval_overhead < 0.03 and batch_overhead < 0.03
    print(
        f"tracing overhead budget (<3% on evaluate and evaluate_batch): "
        f"{'OK' if budget_ok else 'EXCEEDED'}"
    )
    if spans_written == 0:
        print("no span events written — tracing never activated", file=sys.stderr)
        return 1

    if args.smoke:
        print(f"bench-telemetry smoke OK ({spans_written} spans)")
        return 0

    doc = {
        "benchmark": "telemetry",
        "workload": graph.name,
        "ops": int(graph.num_nodes),
        "moves": int(n),
        "batch": int(args.batch),
        "rounds": int(args.rounds),
        "span_events": int(spans_written),
        "evaluate_off_median_s": float(eval_off_med),
        "evaluate_on_median_s": float(eval_on_med),
        "evaluate_overhead_frac": float(eval_overhead),
        "batch_off_median_s": float(batch_off_med),
        "batch_on_median_s": float(batch_on_med),
        "batch_overhead_frac": float(batch_overhead),
        "overhead_estimator": "median of per-round traced/untraced ratios - 1",
        "budget_frac": 0.03,
        "budget_ok": bool(budget_ok),
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
    parser.add_argument(
        "--workload", choices=["inception_v3", "gnmt"], default="inception_v3"
    )
    parser.add_argument("--moves", type=int, default=300, help="evaluations per round")
    parser.add_argument("--batch", type=int, default=10, help="evaluate_batch size")
    parser.add_argument("--rounds", type=int, default=7, help="timed repetitions")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", default=JSON_PATH, help="output path for the JSON record")
    parser.add_argument("--smoke", action="store_true", help="quick pass, no JSON")
    args = parser.parse_args(argv)
    if args.smoke:
        args.moves = min(args.moves, 40)
        args.rounds = 1
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
