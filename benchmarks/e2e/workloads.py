"""The workloads of the end-to-end benchmark, one per process.

    python benchmarks/e2e/workloads.py --workload NAME --seed N \\
        --seconds S --trace 0|1 --out DIR [--smoke]

``run.py`` starts this script once per workload run, so imports, peak
RSS and caches never leak between workloads. The script prints one JSON
result document as the last line of its standard output. With
``--trace 0`` the document carries the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes over identical
inputs and carries the per-layer metrics, the tracing overhead, a Chrome
trace and a self-time table (written under ``--out``).

Every input comes from ``--seed``. End-to-end times are wall times at a
fixed host speed (``refclock.py``); the raw wall times are kept under the
result's ``extra``. A workload checks its own outputs and records the
evidence (bit patterns of repeated results, per-placement step-time
ratios) that ``run.py`` re-checks independently.
"""

from __future__ import annotations

import argparse
import contextlib
import http.client
import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import replace

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

from repro.config import fast_profile  # noqa: E402
from repro.core import save_agent  # noqa: E402
from repro.core.annealing import AnnealingConfig, anneal_placement  # noqa: E402
from repro.core.search import build_agent  # noqa: E402
from repro.graph import graph_to_dict  # noqa: E402
from repro.rl.trainer import JointTrainer, SearchHistory  # noqa: E402
from repro.sim.cluster import ClusterSpec  # noqa: E402
from repro.sim.env import PlacementEnv  # noqa: E402
from repro.workloads import get_workload  # noqa: E402

import spans  # noqa: E402
from refclock import RefClock  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    E2E_UNITS = {m["name"]: m["unit"] for m in json.load(_fh)["end_to_end"]}
LAYER_UNITS = spans.layer_metric_units()

# ----------------------------------------------------------------------
# Workload parameters. Sizes are chosen so one run measures about
# --seconds of work on a 2-core host; --smoke shrinks every workload.
# ----------------------------------------------------------------------
#: Iterations of the prefix re-run that checks a repeated seed reproduces
#: the search bit for bit.
CHECK_ITERS = 2

#: Each run repeats searches of ``iterations`` policy iterations, each
#: with its own seed; the first ``reps`` give the quality metric. A short
#: search's best placement varies ~11% from seed to seed, so the metric
#: is the median of several; ``reps`` is the fewest whose median spread
#: under 6% over ten run seeds (Inception-V3: 9% with 4, 4% with 6).
SEARCH = {
    "search_inception": {
        "graph": ("inception_v3", {}),
        "widths": None,  # fast_profile: encoder 48, placer 48, segment 32
        "iterations": 3,
        "reps": 6,
    },
    "search_bert_wide": {
        "graph": ("bert", {}),
        # Encoder hidden, placer hidden, segment: 1.3-2x fast_profile's.
        # At 128/192 the tape needs 1.4 GB; at 96/128 (1 GB) runs on a
        # shared 2-core VM slowed by 40-70% under outside memory load,
        # against ~10% for search_inception.
        "widths": (64, 96, 64),
        "iterations": 3,
        "reps": 4,
    },
}
SEARCH_SMOKE = {
    "search_inception": {"graph": ("inception_v3", {"scale": 0.25}), "iterations": 2, "reps": 2},
    "search_bert_wide": {"graph": ("bert", {"scale": 0.25}), "iterations": 2, "reps": 2},
}

#: Rounds of ``evaluations`` seeded annealing steps, each on a fresh env;
#: the first ``quality_rounds`` give the quality metric. A GNMT-4 env
#: builds in a few milliseconds, so set-up time is the median of
#: ``setup_builds`` extra builds as well as of one build per round.
REFINE = {"graph": ("gnmt4", {}), "evaluations": 500, "quality_rounds": 6, "setup_builds": 21}
REFINE_SMOKE = {"graph": ("gnmt4", {"scale": 0.25}), "evaluations": 200, "quality_rounds": 2}

SERVE = {
    "checkpoint": ("inception_v3", {}),
    # The hot set, and the generators of never-seen graphs. Requests for
    # one generator's graphs cost about the same, so with k generators,
    # each requested equally, a percentile that falls on a multiple of
    # 1/k of a request kind sits on the edge between two clusters and
    # flips between them from run to run. The median of this mix is the
    # 5/6 point of the hits and its 95th percentile the 1/2 point of the
    # budget requests: k = 3 puts both mid-cluster (k = 6 put the median
    # on an edge, and its spread over ten seeds was 13%).
    "hot": [
        ("vgg16", {"scale": 0.5}),  # 38 ops
        ("resnet50", {"scale": 0.25}),  # 64 ops
        ("inception_v3", {"scale": 0.25}),  # 140 ops
    ],
    # Per block of 10 requests: 60% repeats of the hot set, 30% greedy and
    # 10% budget misses on never-seen graphs.
    "mix": {"hot": 6, "greedy": 3, "budget": 1},
    "budget": 16,
    "batch_sizes": (16, 96),  # fresh graphs draw a batch size from this range
    "sample_frac": 0.05,  # misses re-sent and re-checked against a local simulation
    "quality_graphs": 60,  # the first fresh graphs of a run give step_time_vs_1gpu
    "spawns": 5,  # server start-ups timed for setup_s
}
SERVE_SMOKE = {
    "checkpoint": ("inception_v3", {"scale": 0.25}),
    "hot": [("vgg16", {"scale": 0.25}), ("transformer", {"scale": 0.25})],
    "budget": 4,
    "sample_frac": 0.5,
    "quality_graphs": 4,
    "spawns": 2,
}


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
class Result:
    """The result document one workload run prints."""

    def __init__(self, args):
        self.doc = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "smoke": args.smoke,
            "attempted": 0,
            "failed": 0,
            "metrics": {},
            "checks": [],
            "evidence": {},
            "extra": {},
        }

    def check(self, name: str, ok: bool, detail="") -> None:
        self.doc["checks"].append({"name": name, "ok": bool(ok), "detail": str(detail)})

    def metrics(self, values: dict, units: dict, default=None) -> None:
        """Record every metric in ``units``; a missing value is an error
        unless a ``default`` is given (0.0 for a layer the workload never
        runs)."""
        for name, unit in units.items():
            value = values[name] if default is None else values.get(name, default)
            self.doc["metrics"][name] = {"value": float(value), "unit": unit}


def run_seed(args, r: int) -> int:
    """Seed of repetition ``r`` of a run with ``--seed``."""
    return args.seed * 1000 + r


def hexes(values) -> list:
    return [float(v).hex() for v in values]


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def wall(span) -> float:
    """Wall seconds of a ``(start stamp, end stamp)`` pair of
    :meth:`RefClock.now`, the reference kernel's time left out."""
    (a, a_in), (b, b_in) = span
    return (b - a) - (b_in - a_in)


def timing(res: Result, clock: RefClock, setups: list, units: list, work: list,
           count: int) -> dict:
    """The timed end-to-end metrics from stamp pairs: the median set-up,
    ``count`` units of work per second of ``work`` spans, and the median
    and 95th percentile of one latency unit, at the reference host speed.
    The same on raw wall time go to the result's extras."""
    out = {}
    for prefix, seconds in (("", lambda span: clock.scaled(*span)), ("raw_", wall)):
        times = [seconds(span) for span in units]
        out[prefix] = {
            "setup_s": statistics.median(seconds(span) for span in setups),
            "throughput_per_s": count / sum(seconds(span) for span in work),
            "latency_p50_ms": percentile(times, 50) * 1e3,
            "latency_p95_ms": percentile(times, 95) * 1e3,
        }
    res.doc["extra"].update({"raw_" + k: v for k, v in out["raw_"].items()})
    res.doc["extra"]["latency_samples"] = len(units)
    return out[""]


def peak_rss_mb(pid="self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def single_gpu_step(env: PlacementEnv) -> float:
    """Noise-free step time of the graph placed entirely on the first GPU."""
    return env.makespan(env.resolve(np.zeros(env.num_ops, dtype=np.int64)))


def step_ratio(env: PlacementEnv, devices) -> float:
    """Noise-free step time of ``devices`` over :func:`single_gpu_step`:
    the placement quality a user gets (infinite when it runs out of
    memory)."""
    placement = env.resolve(devices)
    _, oom = env.check_memory(placement)
    if oom.any():
        return float("inf")
    return env.makespan(placement) / single_gpu_step(env)


@contextlib.contextmanager
def traced(tracer, phase: str):
    """Wrappers installed and ``phase`` on the tracer's clock."""
    spans.install(tracer)
    tracer.set_phase(phase)
    try:
        yield tracer
    finally:
        tracer.set_phase(None)
        tracer.uninstall()


def write_trace(tracer, args) -> None:
    """Chrome trace + self-time table under --out."""
    stem = os.path.join(args.out, f"{args.workload}-seed{args.seed}")
    tracer.write_chrome_trace(stem + ".trace.json")
    table = spans.format_layer_table(tracer.layer_table())
    with open(stem + ".layers.txt", "w", encoding="utf-8") as fh:
        fh.write(table + "\n")
    print(table)


# ----------------------------------------------------------------------
# search_inception / search_bert_wide
# ----------------------------------------------------------------------
def build_search(params: dict, seed: int, iterations: int, clock: RefClock):
    """graph -> PlacementEnv -> build_agent("mars") with DGI pre-training
    -> JointTrainer, the set-up half of ``optimize_placement``. Returns
    ``(span, trainer, pretrain_clock)``."""
    start = clock.now()
    name, kwargs = params["graph"]
    graph = get_workload(name, **kwargs)
    cluster = ClusterSpec.default()
    config = fast_profile(seed=seed, iterations=iterations)
    if params.get("widths"):
        enc, hidden, segment = params["widths"]
        config = replace(
            config,
            encoder=replace(config.encoder, hidden_dim=enc),
            placer=replace(config.placer, hidden_size=hidden, segment_size=segment),
        )
    env = PlacementEnv(graph, cluster, batch=config.eval_batch, incremental=config.incremental)
    agent, pretrain_clock = build_agent("mars", graph, cluster, config)
    trainer = JointTrainer(agent, env, config.trainer, health=config.health)
    return (start, clock.now()), trainer, pretrain_clock


def train_search(trainer, pretrain_clock, clock: RefClock):
    """The training half of ``optimize_placement``. Returns the history
    and the span of the training loop. Shutting the evaluation pool down
    is left out: it belongs to no iteration."""
    start = clock.now()
    try:
        history = trainer.train(SearchHistory(pretrain_clock=pretrain_clock))
        span = (start, clock.now())
    finally:
        trainer.env.close_pool()
    return history, span


def records_key(history, n=None) -> list:
    """Bit patterns of every per-iteration result of a search."""
    out = []
    for rec in history.records[:n]:
        out.extend(hexes(rec.runtimes))
        out.extend(hexes([rec.best_runtime, rec.sim_clock, rec.baseline]))
    return out


def run_search(res: Result, args) -> None:
    params = dict(SEARCH[args.workload])
    if args.smoke:
        params.update(SEARCH_SMOKE[args.workload])
    iterations, reps = params["iterations"], params["reps"]
    if args.trace:
        return trace_search(res, args, params, iterations)

    setups, searches, quality, extra_clock = [], [], [], []
    measured, r, done = 0.0, 0, 0
    first_history = None
    with RefClock() as clock:
        while r < reps or measured + measured / r <= args.seconds:
            span, trainer, pretrain_clock = build_search(
                params, run_seed(args, r), iterations, clock)
            setups.append(span)
            history, span = train_search(trainer, pretrain_clock, clock)
            measured += wall(span)
            searches.append(span)
            done += len(history.records)
            if r < reps:
                env = trainer.env
                best = history.best_placement
                final = env.final_run(best) if best is not None else float("nan")
                res.check(
                    f"rep{r}: best placement is OOM-free with a finite final_run",
                    best is not None and np.isfinite(final),
                    f"final_run={final}",
                )
                if best is not None:
                    quality.append(step_ratio(env, best))
                extra_clock.append(history.sim_clock / 3600.0)
                res.doc["extra"].setdefault("best_step_time_s", []).append(history.best_runtime)
                res.doc["extra"].setdefault("final_run_s", []).append(final)
            if r == 0:
                first_history = history
            r += 1

        # Same seed again, shortened: every per-iteration result must
        # repeat bit for bit (pre-training, sampling, measurement, updates).
        # It is a check, not a timed search.
        span, trainer, pretrain_clock = build_search(params, run_seed(args, 0), CHECK_ITERS, clock)
        setups.append(span)
        again, _ = train_search(trainer, pretrain_clock, clock)
    first, second = records_key(first_history, CHECK_ITERS), records_key(again)
    res.check("a repeated seed reproduces the search bit for bit", first == second)
    res.doc["evidence"]["repeat"] = {"first": first, "again": second}

    res.doc["evidence"]["step_ratios"] = hexes(quality)
    res.doc["extra"]["sim_train_h"] = extra_clock
    res.doc["attempted"] = done + len(again.records)
    # Throughput counts policy iterations; latency is one whole search.
    values = timing(res, clock, setups, searches, searches, done)
    values["step_time_vs_1gpu"] = statistics.median(quality) if quality else float("nan")
    values["peak_rss_mb"] = peak_rss_mb()
    res.metrics(values, E2E_UNITS)


def trace_search(res: Result, args, params, iterations) -> None:
    def one_pass(seed, tracer, clock):
        _, trainer, pretrain_clock = build_search(params, seed, iterations, clock)
        if tracer is not None:
            tracer.set_phase("measure")
        history, span = train_search(trainer, pretrain_clock, clock)
        return (records_key(history), [span], len(history.records), trainer.env,
                history.sim_clock / 3600.0)

    trace_pairs(res, args, one_pass)


def trace_pairs(res: Result, args, one_pass) -> None:
    """The per-layer run of search_* and refine_gnmt: a plain and a traced
    pass on the same seed, in pairs, for about --seconds.
    ``one_pass(seed, tracer, clock)`` builds (as traced set-up when
    ``tracer`` is given), runs, and returns ``(results key, work spans,
    units of work, env, simulated hours)``."""
    tracer = spans.Tracer()
    plain, traced_work = [], []
    pairs = 0
    envs, clocks = [], []
    with RefClock() as clock:
        while pairs == 0 or (
            sum(map(wall, plain + traced_work)) * (pairs + 1) / pairs <= args.seconds
        ):
            seed = run_seed(args, pairs)
            key, work, units, _, _ = one_pass(seed, None, clock)
            plain.extend(work)
            with traced(tracer, "setup"):
                traced_key, work, traced_units, env, clock_h = one_pass(seed, tracer, clock)
            traced_work.extend(work)
            res.check(f"pair{pairs}: tracing leaves the results bit-identical", key == traced_key)
            if pairs == 0:
                res.doc["evidence"]["repeat"] = {"first": key, "again": traced_key}
            envs.append(env)
            clocks.append(clock_h)
            res.doc["attempted"] += units + traced_units
            pairs += 1

    write_trace(tracer, args)
    values = tracer.layer_metrics()
    values.update(spans.env_metrics(env.stats for env in envs))
    plain_s = sum(clock.scaled(*span) for span in plain)
    traced_s = sum(clock.scaled(*span) for span in traced_work)
    values.update(
        {
            "rl.updates": tracer.counts.get("rl.updates", 0.0) / pairs,
            "rl.passes": tracer.counts.get("rl.passes", 0.0) / pairs,
            "sim.clock_h": statistics.median(clocks),
            "trace.overhead_frac": traced_s / plain_s - 1.0,
        }
    )
    res.metrics(values, LAYER_UNITS, default=0.0)


# ----------------------------------------------------------------------
# refine_gnmt
# ----------------------------------------------------------------------
def build_refine(params: dict, clock: RefClock):
    start = clock.now()
    name, kwargs = params["graph"]
    env = PlacementEnv(get_workload(name, **kwargs), ClusterSpec.default())
    return (start, clock.now()), env


def anneal_round(env: PlacementEnv, seed: int, evaluations: int, clock: RefClock):
    """One seeded ``anneal_placement`` run; returns the result and its span."""
    start = clock.now()
    result = anneal_placement(env, AnnealingConfig(evaluations=evaluations, seed=seed))
    return result, (start, clock.now())


def anneal_key(result) -> list:
    return hexes([result.best_runtime, result.wall_clock, result.evaluations]) + hexes(
        result.runtimes
    )


def run_refine(res: Result, args) -> None:
    params = dict(REFINE)
    if args.smoke:
        params.update(REFINE_SMOKE)
    evaluations, rounds = params["evaluations"], params["quality_rounds"]
    if args.trace:
        return trace_refine(res, args, params)

    setups, rounds_s, quality, clocks = [], [], [], []
    measured, r, done = 0.0, 0, 0
    first = None
    with RefClock() as clock:
        setups.extend(build_refine(params, clock)[0] for _ in range(params["setup_builds"]))
        while r < rounds or measured + measured / r <= args.seconds:
            span, env = build_refine(params, clock)
            setups.append(span)
            result, span = anneal_round(env, run_seed(args, r), evaluations, clock)
            measured += wall(span)
            rounds_s.append(span)
            done += result.evaluations
            if r < rounds:
                quality.append(step_ratio(env, result.best_placement))
                clocks.append(result.wall_clock / 3600.0)
                res.doc["extra"].setdefault("best_step_time_s", []).append(result.best_runtime)
            if r == 0:
                first = result
            r += 1

        # It is a check, not a timed round.
        span, env = build_refine(params, clock)
        setups.append(span)
        again, _ = anneal_round(env, run_seed(args, 0), evaluations, clock)
    res.check("a repeated seed reproduces the anneal bit for bit",
              anneal_key(first) == anneal_key(again))
    res.doc["evidence"]["repeat"] = {"first": anneal_key(first), "again": anneal_key(again)}

    fresh = PlacementEnv(get_workload(params["graph"][0], **params["graph"][1]),
                         ClusterSpec.default())
    remeasured = fresh.evaluate(first.best_placement)
    res.check(
        "the best placement re-evaluates to the same step time on a fresh env",
        remeasured.valid and remeasured.per_step_time == first.best_runtime,
        f"{remeasured.per_step_time!r} vs {first.best_runtime!r}",
    )

    res.doc["evidence"]["step_ratios"] = hexes(quality)
    res.doc["extra"]["sim_clock_h"] = clocks
    res.doc["attempted"] = done + again.evaluations
    # Throughput counts evaluations; latency is one whole refinement.
    values = timing(res, clock, setups, rounds_s, rounds_s, done)
    values["step_time_vs_1gpu"] = statistics.median(quality)
    values["peak_rss_mb"] = peak_rss_mb()
    res.metrics(values, E2E_UNITS)


def trace_refine(res: Result, args, params) -> None:
    def one_pass(seed, tracer, clock):
        _, env = build_refine(params, clock)
        if tracer is not None:
            tracer.set_phase("measure")
        result, span = anneal_round(env, seed, params["evaluations"], clock)
        return anneal_key(result), [span], result.evaluations, env, result.wall_clock / 3600.0

    trace_pairs(res, args, one_pass)


# ----------------------------------------------------------------------
# serve_mixed
# ----------------------------------------------------------------------
class Server:
    """One ``repro.serve`` subprocess on a free local port."""

    def __init__(self, ckpt_dir: str, log_path: str, trace_out=None):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            self.port = sock.getsockname()[1]
        serve_args = ["--checkpoint-dir", ckpt_dir, "--port", str(self.port), "--workers", "2"]
        if trace_out is None:
            cmd = [sys.executable, "-m", "repro.serve"] + serve_args
        else:
            cmd = [sys.executable, os.path.join(HERE, "serve_launcher.py"),
                   "--trace-out", trace_out, "--"] + serve_args
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(cmd, stdout=self._log, stderr=self._log)
        try:
            self._wait_healthy()
        except BaseException:
            self.stop()
            raise

    def _wait_healthy(self, timeout: float = 60.0) -> None:
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode} during start-up")
            try:
                conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
                try:
                    conn.request("GET", "/healthz")
                    if conn.getresponse().status == 200:
                        return
                finally:
                    conn.close()
            except OSError:
                pass
            time.sleep(0.01)
        raise RuntimeError("server never answered /healthz")

    def stop(self) -> None:
        """SIGINT (graceful drain), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


def post(port: int, body: bytes):
    """One ``POST /place`` on its own connection, as a one-shot caller
    such as curl sends it. Returns ``(status, document)``; ``status`` is
    None on a connection failure.

    A fresh connection, because the server writes a response's headers
    and body in two sends with Nagle's algorithm on: on a keep-alive
    connection the body then waits for the client's delayed ACK, and
    every request back to back took 41-44 ms (a hit takes 3 ms). That
    fixed timer, not the program's work, would set the latency."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        conn.connect()
        conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn.request("POST", "/place", body, {"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    except (OSError, http.client.HTTPException, ValueError) as exc:
        return None, {"error": repr(exc)}
    finally:
        conn.close()


class Mix:
    """The seeded request mix: a hot set of graphs repeated as cache hits,
    and never-seen graphs (a fresh batch size, so a new fingerprint) for
    greedy and refinement-budget misses.

    Requests come in shuffled blocks with the exact proportions of
    ``params["mix"]``, and each kind walks its graph generators in seeded
    rounds, so every stretch of a run, and every seed, carries the same
    work. Batch sizes repeat once a generator has used its whole range;
    a serial number in each graph's name keeps every fingerprint new, so
    a run may send any number of requests."""

    def __init__(self, params: dict, seed: int):
        self.params = params
        self.rng = np.random.default_rng(seed)
        self.graphs = []  # doc id -> CompGraph
        self.bodies = []  # doc id -> request body
        n_gens = len(params["hot"])
        self._batches = [[] for _ in range(n_gens)]
        self.hot = [self._add(g, budget=0) for g in range(n_gens)]
        self._rounds = {}

    def _add(self, gen: int, budget: int) -> int:
        name, kwargs = self.params["hot"][gen]
        batches = self._batches[gen]
        if not batches:
            batches.extend(self.rng.permutation(np.arange(*self.params["batch_sizes"])).tolist())
        graph = get_workload(name, batch_size=batches.pop(), **kwargs)
        graph.name = f"{graph.name}-{len(self.graphs)}"
        self.graphs.append(graph)
        body = {"graph": graph_to_dict(graph), "budget": budget}
        self.bodies.append(json.dumps(body).encode("utf-8"))
        return len(self.graphs) - 1

    def _next(self, kind: str) -> int:
        """The next generator index (or hot doc) for ``kind``."""
        pending = self._rounds.setdefault(kind, [])
        if not pending:
            pending.extend(self.rng.permutation(len(self.params["hot"])).tolist())
        return pending.pop()

    def block(self) -> list:
        """The next shuffled block of doc ids, fresh graphs built now."""
        kinds = [kind for kind, count in self.params["mix"].items() for _ in range(count)]
        out = []
        for kind in self.rng.permutation(kinds):
            if kind == "hot":
                out.append(self.hot[self._next(kind)])
            else:
                budget = self.params["budget"] if kind == "budget" else 0
                out.append(self._add(self._next(kind), budget))
        return out

    def requests(self, n: int) -> list:
        """The next ``n`` doc ids."""
        out = []
        while len(out) < n:
            out.extend(self.block())
        return out[:n]


def send(port: int, mix: Mix, i: int, clock: RefClock) -> tuple:
    """Send doc ``i``; returns its ``(span, status, doc, id)`` row."""
    start = clock.now()
    status, doc = post(port, mix.bodies[i])
    return (start, clock.now()), status, doc, i


def closed_loop(port: int, mix: Mix, seconds: float, clock: RefClock) -> list:
    """One caller sends the mix's blocks, each request as soon as the
    last is answered, until the requests have taken ``seconds`` of wall
    time. Graphs are built between requests, outside the timed spans."""
    rows = []
    measured = 0.0
    while measured < seconds:
        for i in mix.block():
            rows.append(send(port, mix, i, clock))
            measured += wall(rows[-1][0])
    return rows


def check_responses(res: Result, mix: Mix, rows: list, label: str) -> dict:
    """Every response maps every op to a device in range, and a repeated
    graph gets the placement of its first answer (kept as evidence).
    Counts the rows as attempted and the non-200s as failed. Returns the
    first answer per doc id."""
    bad, first, again = [], {}, []
    for _, status, doc, i in rows:
        if status != 200:
            res.doc["failed"] += 1
            continue
        placement = doc.get("placement", {})
        n_dev = len(doc.get("device_names", ()))
        if set(placement) != {node.name for node in mix.graphs[i].nodes} or not all(
            isinstance(d, int) and 0 <= d < n_dev for d in placement.values()
        ):
            bad.append(i)
        if i in first:
            again.append((first[i]["placement"], placement))
        else:
            first[i] = doc
    res.doc["attempted"] += len(rows)
    res.check(f"{label}: every response maps every op to a device in range", not bad, bad[:5])
    res.check(f"{label}: repeats return the placement of their first answer",
              all(a == b for a, b in again))
    res.doc["evidence"]["repeat"] = {
        "first": [json.dumps(a, sort_keys=True) for a, _ in again],
        "again": [json.dumps(b, sort_keys=True) for _, b in again],
    }
    return first


def recheck(res: Result, mix: Mix, first: dict, ids: list) -> list:
    """Recompute ``predicted_step_time`` of the answers to ``ids`` with a
    local PlacementEnv; it must match exactly. Returns each answer's step
    time over its graph's all-on-GPU-0 step time."""
    wrong, ratios = [], []
    for i in ids:
        graph, doc = mix.graphs[i], first.get(i)
        if doc is None:
            wrong.append((graph.name, "no answer"))
            continue
        env = PlacementEnv(graph, ClusterSpec.default())
        devices = [doc["placement"][node.name] for node in graph.nodes]
        placement = env.resolve(devices)
        _, oom = env.check_memory(placement)
        expected = float("inf") if oom.any() else env.makespan(placement)
        if expected != doc["predicted_step_time"]:
            wrong.append((graph.name, expected, doc["predicted_step_time"]))
        ratios.append(doc["predicted_step_time"] / single_gpu_step(env))
    res.check(f"predicted_step_time matches a local simulation ({len(ids)} misses)",
              not wrong and len(ids) > 0, wrong[:3])
    return ratios


def make_checkpoint(params: dict, ckpt_dir: str) -> None:
    """The served policy: a DGI-pre-trained Mars agent. It is part of the
    system under test, not of the input, so its seed is fixed."""
    name, kwargs = params["checkpoint"]
    graph = get_workload(name, **kwargs)
    config = fast_profile(seed=0)
    agent, _ = build_agent("mars", graph, ClusterSpec.default(), config)
    save_agent(os.path.join(ckpt_dir, "mars__" + name), agent, "mars",
               workload=graph.name, config=config)


def sample_misses(mix: Mix, ids, frac: float, seed: int) -> list:
    """A seeded ``frac`` share (at least one) of the fresh graphs in ``ids``."""
    misses = sorted(set(ids) - set(mix.hot))
    k = min(len(misses), max(1, int(round(frac * len(misses)))))
    return sorted(np.random.default_rng(seed).choice(misses, size=k, replace=False).tolist())


def cache_shares(rows: list) -> dict:
    """Share of answered requests per ``cache`` state of the response."""
    ok = [doc["cache"] for _, status, doc, _ in rows if status == 200]
    return {f"{state}_share": ok.count(state) / max(len(ok), 1)
            for state in ("hit", "miss", "coalesced")}


def run_serve(res: Result, args) -> None:
    params = dict(SERVE)
    if args.smoke:
        params.update(SERVE_SMOKE)
    log_path = os.path.join(args.out, f"{args.workload}-seed{args.seed}.server.log")
    with tempfile.TemporaryDirectory(dir=args.out, prefix="ckpt-") as ckpt_dir:
        make_checkpoint(params, ckpt_dir)
        mix = Mix(params, args.seed)
        if args.trace:
            return trace_serve(res, args, params, mix, ckpt_dir, log_path)
        startups = []
        with RefClock() as clock:
            for _ in range(params["spawns"] - 1):
                start = clock.now()
                probe = Server(ckpt_dir, log_path)
                startups.append((start, clock.now()))
                probe.stop()
            start = clock.now()
            server = Server(ckpt_dir, log_path)
            try:
                startups.append((start, clock.now()))
                # The hot set once, so the timed phase finds it cached.
                warmed = [send(server.port, mix, i, clock) for i in mix.hot]
                rows = closed_loop(server.port, mix, args.seconds, clock)
                rss = peak_rss_mb(server.proc.pid)
                sent = [i for *_, i in rows]
                resend = sample_misses(mix, sent, params["sample_frac"], args.seed)
                # Answered misses sent again must come back with the same placement.
                again = [send(server.port, mix, i, clock) for i in resend]
            finally:
                server.stop()
    res.check("the server shuts down cleanly on SIGINT", server.proc.returncode == 0,
              server.proc.returncode)

    first = check_responses(res, mix, warmed + rows + again, "all responses")
    # The first fresh graphs of the run are fixed by the seed, however
    # many requests the run sends, so they give the quality metric.
    fresh = [i for i in dict.fromkeys(sent) if i not in mix.hot][: params["quality_graphs"]]
    ratios = recheck(res, mix, first, fresh)
    recheck(res, mix, first, resend)
    res.doc["evidence"]["step_ratios"] = hexes(ratios)
    res.doc["extra"].update(cache_shares(rows))
    for kind in ("hit", "miss"):
        times = [clock.scaled(*span) for span, status, doc, _ in rows
                 if status == 200 and doc["cache"] == kind]
        if times:
            res.doc["extra"][f"{kind}_p50_ms"] = percentile(times, 50) * 1e3
    requests = [span for span, *_ in rows]
    values = timing(res, clock, startups, requests, requests, len(requests))
    values["step_time_vs_1gpu"] = statistics.median(ratios)
    values["peak_rss_mb"] = rss
    res.metrics(values, E2E_UNITS)


def trace_serve(res: Result, args, params, mix, ckpt_dir, log_path) -> None:
    """The same requests twice, sent one after another: once to a plain
    server, once to a traced one."""
    # About --seconds / 2 per server at the ~25 requests/s one caller gets.
    ids = mix.requests(int(args.seconds * 12))
    trace_out = os.path.join(args.out, f"{args.workload}-seed{args.seed}")
    runs = []
    with RefClock() as clock:
        for label, path in (("plain", None), ("traced", trace_out)):
            server = Server(ckpt_dir, log_path, trace_out=path)
            try:
                warmed = [send(server.port, mix, i, clock) for i in mix.hot]
                if path is not None:
                    server.proc.send_signal(signal.SIGUSR1)  # starts the measured phase
                runs.append([send(server.port, mix, i, clock) for i in ids])
            finally:
                server.stop()
            res.check(f"the {label} server shuts down cleanly on SIGINT",
                      server.proc.returncode == 0, server.proc.returncode)
            check_responses(res, mix, warmed + runs[-1], f"{label} responses")
    plain, rows = runs

    with open(trace_out + ".layers.json", encoding="utf-8") as fh:
        layers = json.load(fh)
    print(spans.format_layer_table(layers["rows"]))
    ok = [row for row in rows if row[1] == 200]
    # Service time of the same request on the traced and the plain server.
    ratios = [t[2]["latency_ms"] / p[2]["latency_ms"]
              for t, p in zip(rows, plain) if t[1] == p[1] == 200]
    shares = cache_shares(rows)
    values = dict(layers["metrics"])
    values.update(
        {
            "serve.wait_s": statistics.median(
                wall(span) - doc["latency_ms"] / 1e3 for span, _, doc, _ in ok
            ),
            "serve.hit_frac": shares["hit_share"],
            "serve.coalesced_frac": shares["coalesced_share"],
            "trace.overhead_frac": statistics.median(ratios) - 1.0,
        }
    )
    # Identical requests against a plain and a traced server must get the
    # identical placements.
    res.doc["evidence"]["repeat"] = {
        "first": [json.dumps(r[2].get("placement"), sort_keys=True) for r in plain],
        "again": [json.dumps(r[2].get("placement"), sort_keys=True) for r in rows],
    }
    res.metrics(values, LAYER_UNITS, default=0.0)


# ----------------------------------------------------------------------
WORKLOADS = {
    "search_inception": run_search,
    "search_bert_wide": run_search,
    "refine_gnmt": run_refine,
    "serve_mixed": run_serve,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    # Servers are stopped with SIGINT. A process a non-interactive shell
    # starts in the background has SIGINT ignored, and an ignored signal
    # stays ignored in the children it execs; a handled one does not.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    res = Result(args)
    WORKLOADS[args.workload](res, args)
    print(json.dumps(res.doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
