"""Microbenchmark: cost of the Mars agent's autograd passes.

Times the three passes a PPO search runs on the neural side, on full
Inception-V3 (302 ops) with the ``fast_profile`` agent:

* **forward** — one teacher-forced ``evaluate`` of a 10-sample rollout
  plus a scalar loss (the tape the update builds);
* **backward** — ``loss.backward()`` over that tape;
* **sample** — ``sample(10)`` under ``no_grad`` (a rollout).

and one layer inside them:

* **encoder** — the placer's bi-LSTM encoder over every segment of the
  op sequence, forward alone (building the tape, as ``evaluate`` does)
  and forward plus ``backward()`` of a fixed linear loss on its outputs;

and the step that runs before any of them:

* **DGI pre-training** — seconds per iteration of ``pretrain_encoder``
  (corrupt, encode both views, score, BCE, backward, clip, Adam) on the
  same graph and encoder, median over rounds of
  :data:`DGI_ITERATIONS` iterations each.

It also counts the tape nodes (``Tensor._make`` calls) one ``evaluate``
and one DGI iteration build: the cost is interpreter overhead per node,
so the counts are the deterministic proxy the timings follow
(docs/performance.md, "Autograd cost").

Run it directly; results land in ``benchmarks/BENCH_autograd.json``::

    PYTHONPATH=src python benchmarks/bench_autograd.py
    PYTHONPATH=src python benchmarks/bench_autograd.py --rounds 3 --json /tmp/a.json

``--smoke`` runs every pass once with no timings and no JSON write
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

from repro.config import fast_profile
from repro.core import build_mars_agent
from repro.gnn import DGI, pretrain_encoder
from repro.nn import Tensor, no_grad
from repro.sim import ClusterSpec
from repro.workloads import get_workload

JSON_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "BENCH_autograd.json")
DGI_ITERATIONS = 30


def count_nodes(fn) -> int:
    """The number of ``Tensor._make`` calls ``fn()`` makes."""
    make = Tensor._make
    count = 0

    def counting_make(*args):
        nonlocal count
        count += 1
        return make(*args)

    Tensor._make = staticmethod(counting_make)
    try:
        fn()
    finally:
        Tensor._make = staticmethod(make)
    return count


def time_pretraining(agent, rounds: int, iterations: int) -> list:
    """Seconds per DGI iteration, one entry per round."""
    per_iter = []
    for r in range(rounds):
        t0 = time.perf_counter()
        pretrain_encoder(agent.encoder, agent.features, agent.adj, iterations=iterations, seed=r)
        per_iter.append((time.perf_counter() - t0) / iterations)
    return per_iter


def time_encoder(agent, rounds: int) -> tuple:
    """Seconds of one encoder pass, forward and forward+backward, per round."""
    placer = agent.placer
    with no_grad():
        reps = agent.node_representations().data
        rng = np.random.default_rng(0)
        weights = [rng.standard_normal(m.shape) for m in placer._encode(Tensor(reps))[0]]
    forward, forward_backward = [], []
    for _ in range(rounds):
        seq = Tensor(reps, requires_grad=True)
        t0 = time.perf_counter()
        mems, _ = placer._encode(seq)
        t1 = time.perf_counter()
        placer.zero_grad()
        sum((m * w).sum() for m, w in zip(mems, weights)).backward()
        t2 = time.perf_counter()
        forward.append(t1 - t0)
        forward_backward.append(t2 - t0)
    return forward, forward_backward


def run(args) -> int:
    graph = get_workload("inception_v3")
    agent = build_mars_agent(graph, ClusterSpec.default(), fast_profile(seed=0))
    rollout = agent.sample(10, np.random.default_rng(0))
    nodes = count_nodes(lambda: agent.evaluate(rollout.internal))
    dgi = DGI(agent.encoder, rng=0)
    dgi_nodes = count_nodes(
        lambda: dgi.loss(agent.features, agent.adj, np.random.default_rng(0))
    )
    if args.smoke:
        agent.zero_grad()
        logp, entropy = agent.evaluate(rollout.internal)
        (-(logp.mean()) - 0.01 * entropy.mean()).backward()
        time_pretraining(agent, rounds=1, iterations=2)
        time_encoder(agent, rounds=1)
        print(f"bench-autograd smoke OK ({nodes} nodes per evaluate, "
              f"{dgi_nodes} per DGI iteration)")
        return 0

    forward, backward, sample = [], [], []
    for r in range(args.rounds):
        t0 = time.perf_counter()
        logp, entropy = agent.evaluate(rollout.internal)
        loss = -(logp.mean()) - 0.01 * entropy.mean()
        t1 = time.perf_counter()
        agent.zero_grad()
        loss.backward()
        t2 = time.perf_counter()
        agent.sample(10, np.random.default_rng(r))
        t3 = time.perf_counter()
        forward.append(t1 - t0)
        backward.append(t2 - t1)
        sample.append(t3 - t2)
    encoder_fwd, encoder_fwd_bwd = time_encoder(agent, args.rounds)
    dgi_iter = time_pretraining(agent, args.rounds, DGI_ITERATIONS)

    doc = {
        "benchmark": "autograd",
        "workload": "inception_v3",
        "ops": graph.num_nodes,
        "rounds": args.rounds,
        "nodes_per_pass": nodes,
        "nodes_per_op": nodes / graph.num_nodes,
        "forward_median_s": statistics.median(forward),
        "backward_median_s": statistics.median(backward),
        "sample10_median_s": statistics.median(sample),
        "encoder_forward_median_s": statistics.median(encoder_fwd),
        "encoder_forward_backward_median_s": statistics.median(encoder_fwd_bwd),
        "dgi_iterations_per_round": DGI_ITERATIONS,
        "dgi_nodes_per_iteration": dgi_nodes,
        "dgi_iteration_median_s": statistics.median(dgi_iter),
        "host": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }
    for key in ("nodes_per_pass", "nodes_per_op", "forward_median_s",
                "backward_median_s", "sample10_median_s",
                "encoder_forward_median_s", "encoder_forward_backward_median_s",
                "dgi_nodes_per_iteration", "dgi_iteration_median_s"):
        print(f"{key:>33}: {doc[key]:.4g}")
    with open(args.json, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.json}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=11, help="timing repetitions (median)")
    parser.add_argument("--json", default=JSON_PATH, help="output path for the JSON record")
    parser.add_argument("--smoke", action="store_true", help="quick pass, no timings, no JSON")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
