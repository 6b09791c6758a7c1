"""Benchmark: distributed actor–learner search vs single-process search.

On a real testbed the expensive part of one policy iteration is not the
learner's update — it is *measuring* the sampled placements on hardware
(the paper's per-placement measurement latency: graph rebuild, variable
init, warm-up and timed steps). ``repro.distrib`` exists to overlap that
latency across rollout-worker processes.

The simulated :class:`MeasurementProtocol` returns instantly, so this
benchmark swaps in :class:`LatencyProtocol` — identical numbers, plus a
real ``time.sleep`` per measurement emulating the testbed's per-placement
latency. The learner and the workers run the *same* protocol; the only
difference between the timed modes is who waits:

* ``workers=0`` — the single-process search measures every placement
  inline, paying the full latency serially;
* ``workers=N`` — N rollout workers measure concurrently and the learner
  only consumes finished batches.

Both modes run the same iteration/sample budget; the reported number is
search throughput (samples consumed per second of search wall time).
Run it directly::

    PYTHONPATH=src python benchmarks/bench_distributed.py
    PYTHONPATH=src python benchmarks/bench_distributed.py --workers 4 --latency 0.05
    PYTHONPATH=src python benchmarks/bench_distributed.py --smoke  # make bench-smoke

``--smoke`` runs a 2-worker search on VGG-16 with a tiny latency and
asserts completion + clean shutdown only (no timing assertions) — it is
wired into ``make test`` to keep the distributed path exercised.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from repro.config import fast_profile
from repro.core.search import optimize_placement
from repro.sim.cluster import ClusterSpec
from repro.sim.measurement import MeasurementProtocol
from repro.telemetry import Telemetry
from repro.workloads import get_workload

JSON_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "BENCH_distributed.json"
)


@dataclass(frozen=True)
class LatencyProtocol(MeasurementProtocol):
    """The simulated protocol plus a real per-measurement sleep.

    Module-level (not a closure) so worker processes can rebuild it, and
    the sleep happens inside :meth:`measure` — exactly where a testbed
    blocks — so cache hits in the environment skip it, just like a real
    measurement cache would.
    """

    real_latency_s: float = 1.0

    def measure(self, makespan, valid, placement_key):
        time.sleep(self.real_latency_s)
        return super().measure(makespan, valid, placement_key)


def run_search(workload: str, workers: int, iterations: int, latency: float, seed: int):
    """One full search; returns ``(wall_s, samples, history, telemetry)``."""
    cfg = fast_profile(seed=seed, iterations=iterations)
    # queue_capacity=1: with emulated measurement latency the workers
    # would otherwise fill deep queues with rollouts the budgeted run
    # never consumes — wasted CPU that a real deployment would also cap.
    # max_staleness=2*workers: the default (4) is tuned for small fleets;
    # at 8 workers with broadcast-per-update, steady-state staleness is
    # ≈ workers/2 versions, and dropping those batches would re-measure
    # every rollout instead of overlapping it.
    cfg = replace(
        cfg,
        distrib=replace(
            cfg.distrib,
            workers=workers,
            queue_capacity=1,
            max_staleness=max(4, 2 * workers),
        ),
    )
    tel = Telemetry(name=f"bench-distrib-{workers}")
    graph = get_workload(workload)
    protocol = LatencyProtocol(real_latency_s=latency)
    start = time.perf_counter()
    result = optimize_placement(
        graph, ClusterSpec.default(), "mars_no_pretrain", cfg,
        protocol=protocol, telemetry=tel,
    )
    wall = time.perf_counter() - start
    history = result.history
    if len(history.records) != iterations or history.halt_reason is not None:
        raise AssertionError(
            f"workers={workers}: ran {len(history.records)}/{iterations} "
            f"iterations (halt={history.halt_reason!r})"
        )
    leaked = multiprocessing.active_children()
    if leaked:
        raise AssertionError(
            f"workers={workers}: orphaned processes {[c.name for c in leaked]}"
        )
    return wall, history.records[-1].samples_so_far, history, tel


def run_benchmark(args) -> int:
    print(
        f"workload={args.workload} iterations={args.iterations} "
        f"samples/iter=10 latency={args.latency * 1000:.0f}ms "
        f"workers={args.workers}"
    )
    rows = []
    for workers in (0, args.workers):
        wall, samples, history, _ = run_search(
            args.workload, workers, args.iterations, args.latency, args.seed
        )
        rows.append((workers, wall, samples, samples / wall, history.best_runtime))
    base_tp = rows[0][3]
    print(f"{'workers':>8} {'wall_s':>9} {'samples':>8} {'samples/s':>10} {'speedup':>8}")
    for workers, wall, samples, tp, _best in rows:
        print(f"{workers:>8} {wall:>9.2f} {samples:>8} {tp:>10.2f} {tp / base_tp:>7.2f}x")
    speedup = rows[1][3] / base_tp
    doc = {
        "benchmark": "distributed",
        "workload": args.workload,
        "iterations": int(args.iterations),
        "measurement_latency_s": float(args.latency),
        "modes": {
            f"workers={workers}": {
                "wall_s": float(wall),
                "samples": int(samples),
                "samples_per_s": float(tp),
                "best_runtime": float(best),
            }
            for workers, wall, samples, tp, best in rows
        },
        "speedup_vs_single_process": float(speedup),
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
    if speedup < args.min_speedup:
        print(
            f"FAIL: {speedup:.2f}x search throughput at {args.workers} workers "
            f"(target >= {args.min_speedup:.1f}x)",
            file=sys.stderr,
        )
        return 1
    print(f"search throughput {speedup:.2f}x at {args.workers} workers: OK")
    return 0


def run_smoke() -> int:
    """2 workers, tiny latency: proves the distributed path end to end."""
    wall, samples, history, tel = run_search(
        "vgg16", workers=2, iterations=3, latency=0.005, seed=0
    )
    snap = tel.metrics.snapshot()
    batches = snap["counters"].get("distrib.batches", {}).get("value", 0)
    if batches != 3:
        print(f"bench-smoke FAILED: distrib.batches == {batches}", file=sys.stderr)
        return 1
    print(
        f"bench-smoke OK: 2 workers x 3 iterations on vgg16 in {wall:.1f}s, "
        f"{samples} samples, clean shutdown"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", choices=["inception_v3", "vgg16", "bert", "gnmt4"],
        default="inception_v3",
    )
    parser.add_argument("--iterations", type=int, default=8, help="policy iterations")
    parser.add_argument("--workers", type=int, default=8, help="rollout workers")
    parser.add_argument(
        "--latency", type=float, default=1.0,
        help="emulated per-measurement latency in seconds",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--min-speedup", type=float, default=3.0,
        help="fail below this throughput ratio at --workers",
    )
    parser.add_argument("--json", default=JSON_PATH, help="output path for the JSON record")
    parser.add_argument(
        "--smoke", action="store_true", help="2 workers, 3 iterations, no timings"
    )
    args = parser.parse_args(argv)
    if args.smoke:
        return run_smoke()
    return run_benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
