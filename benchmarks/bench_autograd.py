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

and the steps around them:

* **DGI pre-training** — seconds per iteration of ``pretrain_encoder``
  (corrupt, encode both views in one pass, score, BCE, backward, clip,
  Adam) on the same graph and encoder, median over rounds of
  :data:`DGI_ITERATIONS` iterations each;
* **Adam step** — one ``Adam.step`` over every agent parameter, with the
  gradients of a ``backward``, median over rounds of
  :data:`ADAM_STEPS` steps each.

It also counts the tape nodes (``Tensor._make`` calls) one ``evaluate``
and one DGI iteration build: the cost is interpreter overhead per node,
so the counts are the deterministic proxy the timings follow
(docs/performance.md, "Autograd cost").

Its memory is measured by ``tracemalloc`` in a phase of its own, after
the timed rounds: ``tape_mb``, the bytes one ``evaluate`` of the
10-sample rollout holds, and ``update_peak_mb``, the traced peak of one
PPO update (the profile's 2 passes) on a 20-sample buffer.

Each profile is one row of the record: ``fast_profile`` with every
figure above, then ``paper_profile`` (Section 4.2 widths: GCN 256,
placer 512, segments of 128) with the passes, the DGI iteration and the
Adam step, over :data:`PAPER_ROUNDS` rounds (a pass there takes
seconds).

Run it directly; results land in ``benchmarks/BENCH_autograd.json``::

    PYTHONPATH=src python benchmarks/bench_autograd.py
    PYTHONPATH=src python benchmarks/bench_autograd.py --rounds 3 --json /tmp/a.json

``--smoke`` runs every ``fast_profile`` pass once with no timings and no
JSON write, checks that a DGI iteration builds
:data:`DGI_NODES_PER_ITERATION` tape nodes, and prints both memory
figures (``make bench-smoke``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc

import numpy as np

from repro.config import fast_profile, paper_profile
from repro.core import build_mars_agent
from repro.gnn import DGI, pretrain_encoder
from repro.nn import Adam, Tensor, no_grad
from repro.rl.ppo import PPOUpdater
from repro.sim import ClusterSpec
from repro.workloads import get_workload

JSON_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "BENCH_autograd.json")
DGI_ITERATIONS = 30
#: One encoder pass over both DGI views plus the objective.
DGI_NODES_PER_ITERATION = 2
ADAM_STEPS = 10
PAPER_ROUNDS = 3


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


def time_adam(agent, rounds: int) -> list:
    """Seconds per ``Adam.step`` over the agent's parameters, per round.

    The gradients are one ``backward`` of a teacher-forced rollout's
    loss; the steps move the agent's weights."""
    rollout = agent.sample(2, np.random.default_rng(0))
    agent.zero_grad()
    logp, entropy = agent.evaluate(rollout.internal)
    (-(logp.mean()) - 0.01 * entropy.mean()).backward()
    opt = Adam(agent.parameters(), lr=1e-4)
    opt.step()  # allocate the moments outside the timings
    per_step = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(ADAM_STEPS):
            opt.step()
        per_step.append((time.perf_counter() - t0) / ADAM_STEPS)
    return per_step


def time_passes(agent, rollout, rounds: int) -> tuple:
    """Seconds of the forward (``evaluate`` + loss), ``backward`` and
    ``sample(10)`` passes, one list each, one entry per round."""
    forward, backward, sample = [], [], []
    for r in range(rounds):
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
    return forward, backward, sample


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


def measure_memory(agent, config, rollout) -> tuple:
    """``(tape_mb, update_peak_mb)``: the traced bytes one ``evaluate`` of
    ``rollout`` holds, and the traced peak of one PPO update on a fresh
    20-sample buffer. The update moves the agent's weights."""
    rng = np.random.default_rng(0)
    buffer = agent.sample(20, rng)
    advantages = rng.standard_normal(20)
    updater = PPOUpdater(agent, config.trainer.ppo, seed=0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tape = agent.evaluate(rollout.internal)
        tape_bytes = tracemalloc.get_traced_memory()[0] - base
        del tape
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        updater.update(buffer, advantages)
        update_bytes = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return tape_bytes / 2**20, update_bytes / 2**20


def build(graph, config) -> tuple:
    """``(agent, rollout, nodes per evaluate, nodes per DGI iteration)``."""
    agent = build_mars_agent(graph, ClusterSpec.default(), config)
    rollout = agent.sample(10, np.random.default_rng(0))
    nodes = count_nodes(lambda: agent.evaluate(rollout.internal))
    dgi = DGI(agent.encoder, rng=0)
    dgi_nodes = count_nodes(
        lambda: dgi.loss(agent.features, agent.adj, np.random.default_rng(0))
    )
    return agent, rollout, nodes, dgi_nodes


def profile_row(name: str, graph, agent, rollout, nodes, dgi_nodes, rounds) -> dict:
    """The figures every profile's row records."""
    forward, backward, sample = time_passes(agent, rollout, rounds)
    dgi_iter = time_pretraining(agent, rounds, DGI_ITERATIONS)
    adam = time_adam(agent, rounds)
    return {
        "profile": name,
        "workload": "inception_v3",
        "ops": graph.num_nodes,
        "rounds": rounds,
        "nodes_per_pass": nodes,
        "nodes_per_op": nodes / graph.num_nodes,
        "forward_median_s": statistics.median(forward),
        "backward_median_s": statistics.median(backward),
        "sample10_median_s": statistics.median(sample),
        "dgi_iterations_per_round": DGI_ITERATIONS,
        "dgi_nodes_per_iteration": dgi_nodes,
        "dgi_iteration_median_s": statistics.median(dgi_iter),
        "adam_steps_per_round": ADAM_STEPS,
        "adam_step_median_s": statistics.median(adam),
    }


def run(args) -> int:
    graph = get_workload("inception_v3")
    config = fast_profile(seed=0)
    agent, rollout, nodes, dgi_nodes = build(graph, config)
    if args.smoke:
        if dgi_nodes != DGI_NODES_PER_ITERATION:
            raise SystemExit(
                f"bench-autograd smoke FAILED: a DGI iteration builds {dgi_nodes} "
                f"tape nodes, expected {DGI_NODES_PER_ITERATION}"
            )
        agent.zero_grad()
        logp, entropy = agent.evaluate(rollout.internal)
        (-(logp.mean()) - 0.01 * entropy.mean()).backward()
        time_pretraining(agent, rounds=1, iterations=2)
        time_encoder(agent, rounds=1)
        tape_mb, update_mb = measure_memory(agent, config, rollout)
        print(f"bench-autograd smoke OK ({nodes} nodes per evaluate, "
              f"{dgi_nodes} per DGI iteration, tape_mb {tape_mb:.2f}, "
              f"update_peak_mb {update_mb:.2f})")
        return 0

    fast = profile_row("fast_profile", graph, agent, rollout, nodes, dgi_nodes, args.rounds)
    encoder_fwd, encoder_fwd_bwd = time_encoder(agent, args.rounds)
    tape_mb, update_mb = measure_memory(agent, config, rollout)
    fast.update({
        "encoder_forward_median_s": statistics.median(encoder_fwd),
        "encoder_forward_backward_median_s": statistics.median(encoder_fwd_bwd),
        "tape_mb": tape_mb,
        "update_peak_mb": update_mb,
    })
    del agent, rollout
    paper = profile_row("paper_profile", graph, *build(graph, paper_profile()), PAPER_ROUNDS)

    doc = {
        "benchmark": "autograd",
        "rows": [fast, paper],
        "host": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }
    for row in doc["rows"]:
        print(row["profile"])
        for key, value in row.items():
            if isinstance(value, float) or key.endswith("_per_iteration"):
                print(f"{key:>35}: {value:.4g}")
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
