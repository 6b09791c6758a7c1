"""Smoke test of the end-to-end benchmark.

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e.py -q

Runs every workload shrunk (``run.py --smoke``), plain and traced, with
all output checks on (under a minute together), then corrupts copies of
the plain results and requires the checker to reject each copy.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (benchmarks/e2e/run.py)


def run_smoke(out, *flags):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", "--out", str(out), *flags],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    with open(out / "runset.json", encoding="utf-8") as fh:
        runs = json.load(fh)["runs"]
    return runs, json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    return run_smoke(tmp_path_factory.mktemp("e2e-smoke"))


@pytest.mark.parametrize("flags", [(), ("--trace",)], ids=["untraced", "traced"])
def test_smoke_runs_every_workload_correctly(smoke, tmp_path, flags):
    runs, summary = run_smoke(tmp_path, *flags) if flags else smoke
    spec = run.load_spec()
    expected = spec["per_layer"] if flags else spec["end_to_end"]
    assert summary["correct"] is True
    assert summary["failed"] == 0 and summary["attempted"] >= len(runs)
    assert [d["workload"] for d in runs] == [w["name"] for w in spec["workloads"]]
    for doc in runs:
        assert doc["problems"] == [], doc["problems"]
        assert set(doc["metrics"]) == {m["name"] for m in expected}
        assert set(doc["host"]) == {"nproc", "python", "numpy", "platform", "seed"}


def _flip_hex(doc):
    again = doc["evidence"]["repeat"]["again"]
    again[0] = again[0] + "0"


CORRUPTIONS = {
    "repeat-differs": _flip_hex,
    "step-metric-not-median": lambda d: d["metrics"]["step_time_vs_1gpu"].update(
        value=d["metrics"]["step_time_vs_1gpu"]["value"] * (1 + 1e-12)
    ),
    "metric-missing": lambda d: d["metrics"].pop("peak_rss_mb"),
    "wrong-unit": lambda d: d["metrics"]["latency_p50_ms"].update(unit="s"),
    "zero-time": lambda d: d["metrics"]["throughput_per_s"].update(value=0.0),
    "failed-operation": lambda d: d.update(failed=1),
    "check-failed": lambda d: d["checks"][0].update(ok=False),
}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_checker_rejects_corrupted_result(smoke, name):
    runs, _ = smoke
    spec = run.load_spec()
    for doc in runs:
        bad = copy.deepcopy(doc)
        CORRUPTIONS[name](bad)
        assert run.check_result(bad, spec), f"{name} accepted for {doc['workload']}"


def test_request_mix_covers_a_long_run():
    """A long run with the smoke graphs needs several times more fresh
    graphs per generator than the batch-size range holds; each must still
    be a new fingerprint, and every block keeps the mix's proportions."""
    import workloads

    params = dict(workloads.SERVE, **workloads.SERVE_SMOKE)
    mix = workloads.Mix(params, seed=0)
    ids = mix.requests(1500)
    fresh = [i for i in ids if i not in mix.hot]
    lo, hi = params["batch_sizes"]
    assert len(fresh) > 3 * (hi - lo) * len(params["hot"])
    prints = {mix.graphs[i].fingerprint() for i in fresh + mix.hot}
    assert len(prints) == len(fresh) + len(mix.hot)
    block = sum(params["mix"].values())
    for start in range(0, len(ids), block):
        assert sum(i in mix.hot for i in ids[start:start + block]) == params["mix"]["hot"]


def test_refclock_scales_by_the_speed_around_a_span():
    from refclock import REF_S, RefClock

    clock = RefClock()
    clock.times = [float(t) for t in range(10)]
    clock.costs = [REF_S] * 5 + [2 * REF_S] * 5  # the host halves its speed at t=5
    assert clock.speed(1.5, 2.5) == 1.0
    assert clock.speed(7.5, 8.5) == 0.5
    # 2 s of wall time, 0.5 s of it in the kernel, at half speed.
    assert clock.scaled((7.0, 1.0), (9.0, 1.5)) == pytest.approx(0.75)
    # Too few samples near a span: the nearest ones around its midpoint.
    assert clock.speed(100.0, 100.1) == 0.5


def test_refclock_samples_while_started_and_leaves_its_time_out():
    import time

    from refclock import INTERVAL_S, RefClock

    with RefClock() as clock:
        start = clock.now()
        deadline = time.perf_counter() + 6 * INTERVAL_S
        while time.perf_counter() < deadline:
            pass
        end = clock.now()
    assert len(clock.times) >= 2 * 5 + 4
    kernel_time = end[1] - start[1]
    assert kernel_time > 0
    assert end[0] - start[0] - kernel_time > 0
    assert clock.scaled(start, end) > 0
