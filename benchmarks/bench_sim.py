"""Microbenchmark: cost of the simulator layer on GNMT-4 (686 ops).

``refine_gnmt`` (simulated annealing, no neural network) spends nearly
all of its time here. Times, on full GNMT-4 and the ``default()``
cluster:

* **simulate** — microseconds per ``scheduler._simulate`` pass (one
  uncached evaluation's event loop), over a fixed seeded set of
  anneal-style placements (successive annealing proposals);
* **resolve** — microseconds per ``PlacementEnv.resolve`` (colocation and
  ``cpu_only`` constraints), paid by every evaluation, cache hits too;
* **env build** — microseconds per ``PlacementEnv`` construction;
* **anneal** — evaluations per second of one 500-step
  ``anneal_placement`` on a fresh env (cache lookups included).

Each figure is the median over rounds. Run it directly; results land in
``benchmarks/BENCH_sim.json``::

    PYTHONPATH=src python benchmarks/bench_sim.py
    PYTHONPATH=src python benchmarks/bench_sim.py --rounds 3 --json /tmp/s.json

``--smoke`` runs every path once with no timings and no JSON write
(``make bench-smoke``).
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

from repro.core.annealing import AnnealingConfig, _propose, anneal_placement
from repro.sim import ClusterSpec, PlacementEnv
from repro.sim.scheduler import _simulate
from repro.workloads import get_workload

JSON_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "BENCH_sim.json")
PLACEMENTS = 250
ANNEAL_EVALUATIONS = 500


def anneal_actions(num_ops: int, num_devices: int, count: int, seed: int = 0) -> list:
    """``count`` successive annealing proposals from a seeded random start."""
    rng = np.random.default_rng(seed)
    actions = rng.integers(0, num_devices, num_ops)
    out = [actions]
    for _ in range(count - 1):
        actions = _propose(actions, num_devices, AnnealingConfig(), rng)
        out.append(actions)
    return out


def per_call_us(fn, items) -> float:
    """Microseconds per ``fn(item)`` over one pass of ``items``."""
    t0 = time.perf_counter()
    for item in items:
        fn(item)
    return (time.perf_counter() - t0) / len(items) * 1e6


def run(args) -> int:
    graph = get_workload("gnmt4")
    cluster = ClusterSpec.default()
    env = PlacementEnv(graph, cluster)
    count = 4 if args.smoke else PLACEMENTS
    actions = anneal_actions(graph.num_nodes, cluster.num_devices, count)
    devices = [env.resolve(a).devices.tolist() for a in actions]
    tables = env._tables

    def simulate(d):
        return _simulate(tables, d)

    def anneal(seed: int, evaluations: int) -> float:
        fresh = PlacementEnv(graph, cluster)
        t0 = time.perf_counter()
        anneal_placement(fresh, AnnealingConfig(evaluations=evaluations, seed=seed))
        return fresh.stats.evaluations / (time.perf_counter() - t0)

    if args.smoke:
        per_call_us(simulate, devices)
        per_call_us(env.resolve, actions)
        anneal(0, 20)
        print(f"bench-sim smoke OK ({graph.num_nodes} ops, {count} placements)")
        return 0

    simulate_us, resolve_us, build_us, anneal_eps = [], [], [], []
    for r in range(args.rounds):
        simulate_us.append(per_call_us(simulate, devices))
        resolve_us.append(per_call_us(env.resolve, actions))
        build_us.append(per_call_us(lambda _: PlacementEnv(graph, cluster), range(10)))
        anneal_eps.append(anneal(r, ANNEAL_EVALUATIONS))

    doc = {
        "benchmark": "sim",
        "workload": "gnmt4",
        "ops": graph.num_nodes,
        "cluster": "default",
        "rounds": args.rounds,
        "placements": count,
        "simulate_median_us": statistics.median(simulate_us),
        "resolve_median_us": statistics.median(resolve_us),
        "env_build_median_us": statistics.median(build_us),
        "anneal_evaluations": ANNEAL_EVALUATIONS,
        "anneal_evaluations_per_s": statistics.median(anneal_eps),
        "host": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }
    for key in ("simulate_median_us", "resolve_median_us", "env_build_median_us",
                "anneal_evaluations_per_s"):
        print(f"{key:>24}: {doc[key]:.4g}")
    with open(args.json, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.json}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=9, help="timing repetitions (median)")
    parser.add_argument("--json", default=JSON_PATH, help="output path for the JSON record")
    parser.add_argument("--smoke", action="store_true", help="quick pass, no timings, no JSON")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
