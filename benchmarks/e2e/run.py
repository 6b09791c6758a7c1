"""End-to-end benchmark of the placement system: search, refinement, /place.

    python3 benchmarks/e2e/run.py [--workloads NAME ...] [--seed N]
        [--seconds S] [--trace [0|1]] [--smoke] [--repeat N] [--out DIR]

Runs each workload (see ``BENCHMARK.json``) in its own child process
(``workloads.py``), checks its result, stamps it with a host block and
writes it under ``--out``. Every metric is printed by name with its unit.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; with several runs,
metric names are ``<workload>/<metric>`` and values are medians.

``--repeat N`` runs every workload N times with seeds ``seed .. seed+N-1``
and prints each metric's median, quartiles and spread (IQR / median),
flagging any spread beyond the metric's bound. The exit code is 0 only
when every run finished and passed its checks.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SMOKE_SECONDS = 4.0


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def host_block(seed: int) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "seed": seed,
    }


class BenchError(RuntimeError):
    """A workload run crashed or printed no result."""


def run_workload(name: str, seed: int, seconds: float, trace: int, smoke: bool,
                 out: str) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--out", out]
    if smoke:
        cmd.append("--smoke")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    # Its own process group, so a timeout also stops the servers it started.
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            process_group=0)
    try:
        stdout, _ = proc.communicate(timeout=90 + 4 * seconds)
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{name} seed {seed} timed out") from exc
    lines = stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{name} seed {seed} exited with {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except ValueError as exc:
        raise BenchError(f"{name} seed {seed} printed no result") from exc


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def check_result(doc: dict, spec: dict) -> list:
    """Problems with one workload result; an empty list means correct.

    Checks the metric set and units against ``BENCHMARK.json``, the
    workload's own checks, and re-derives what the evidence allows: a
    repeated seed (or a traced pass) must reproduce the recorded results
    exactly, and the step-time metric must be the median of the recorded
    per-placement ratios."""
    problems = []
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        return ["no metrics"]
    expected = spec["per_layer"] if doc.get("trace") else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in expected}
    if set(metrics) != set(units):
        problems.append(f"metric names differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ set(units))}")
    for name, unit in units.items():
        entry = metrics.get(name, {})
        value = entry.get("value")
        if entry.get("unit") != unit:
            problems.append(f"{name}: unit {entry.get('unit')!r}, expected {unit!r}")
        if not _finite(value) or (not doc.get("trace") and value <= 0):
            problems.append(f"{name}: bad value {value!r}")
    attempted, failed = doc.get("attempted"), doc.get("failed")
    if not isinstance(attempted, int) or attempted < 1:
        problems.append(f"attempted = {attempted!r}")
    if failed != 0:
        problems.append(f"failed = {failed!r}")
    checks = doc.get("checks") or []
    if not checks:
        problems.append("no output checks ran")
    problems += [f"check failed: {c['name']} {c.get('detail', '')}"
                 for c in checks if not c.get("ok")]
    evidence = doc.get("evidence", {})
    repeat = evidence.get("repeat", {})
    if not repeat.get("first") or repeat.get("first") != repeat.get("again"):
        problems.append("a repeated run did not reproduce the recorded results")
    if not doc.get("trace"):
        ratios = [float.fromhex(h) for h in evidence.get("step_ratios", [])]
        reported = metrics.get("step_time_vs_1gpu", {}).get("value")
        if not ratios or statistics.median(ratios) != reported:
            problems.append("step_time_vs_1gpu is not the median of the recorded ratios")
    return problems


def quartiles(values: list) -> tuple:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread_report(docs: list, spec: dict) -> None:
    """Median, quartiles and spread of every metric, per workload."""
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    for workload in dict.fromkeys(d["workload"] for d in docs):
        runs = [d for d in docs if d["workload"] == workload]
        print(f"\n{workload}: {len(runs)} run(s), seeds {[d['seed'] for d in runs]}")
        print(f"  {'metric':<28} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for name, entry in runs[0]["metrics"].items():
            values = [d["metrics"][name]["value"] for d in runs]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = "  SPREAD > BOUND" if bound is not None and spread > bound else ""
            print(f"  {name:<28} {entry['unit']:<6} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.1%} {'' if bound is None else f'{bound:.0%}':>6}{flag}")
        for key in sorted(runs[0].get("extra", {})):
            values = [d["extra"].get(key) for d in runs]
            if all(_finite(v) for v in values):
                print(f"  extra {key:<22} median {statistics.median(values):.6g}")


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", "--workload", dest="workloads", nargs="+",
                        choices=names, default=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measured seconds per run (default {spec['run_seconds']}, "
                             f"{SMOKE_SECONDS} with --smoke)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="per-layer run: spans, Chrome trace, self-time table")
    parser.add_argument("--smoke", action="store_true",
                        help="shrunken workloads, all checks on")
    parser.add_argument("--repeat", type=int, default=1, metavar="N")
    parser.add_argument("--out", default=os.path.join(HERE, "out"))
    args = parser.parse_args(argv)
    seconds = args.seconds or (SMOKE_SECONDS if args.smoke else spec["run_seconds"])
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no source tree at {os.path.join(ROOT, 'src', 'repro')}", file=sys.stderr)
        return 2
    os.makedirs(args.out, exist_ok=True)

    docs = []
    try:
        for workload in args.workloads:
            for seed in range(args.seed, args.seed + args.repeat):
                doc = run_workload(workload, seed, seconds, args.trace, args.smoke, args.out)
                doc["host"] = host_block(seed)
                doc["problems"] = check_result(doc, spec)
                docs.append(doc)
                path = os.path.join(args.out, f"{workload}-seed{seed}-trace{args.trace}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(doc, fh, indent=1)
                for name, entry in doc["metrics"].items():
                    print(f"{workload} seed={seed}: {name} = {entry['value']:.6g} {entry['unit']}")
                for problem in doc["problems"]:
                    print(f"{workload} seed={seed}: INCORRECT: {problem}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    with open(os.path.join(args.out, "runset.json"), "w", encoding="utf-8") as fh:
        json.dump({"host": host_block(args.seed), "runs": docs}, fh, indent=1)
    if len(docs) > 1:
        spread_report(docs, spec)
        metrics = {}
        for workload in args.workloads:
            runs = [d for d in docs if d["workload"] == workload]
            for name, entry in runs[0]["metrics"].items():
                metrics[f"{workload}/{name}"] = {
                    "value": statistics.median(d["metrics"][name]["value"] for d in runs),
                    "unit": entry["unit"],
                }
    else:
        metrics = docs[0]["metrics"]
    correct = all(not d["problems"] for d in docs)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(d["attempted"] for d in docs),
        "failed": sum(d["failed"] for d in docs),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
