"""Golden pin of the scheduler's outputs on the paper's three workloads.

For 8 seeded placements of Inception-V3, GNMT-4 (``scale=0.25``) and
BERT on the ``default()`` and ``nvlink()`` clusters, this pins the
makespan, the comm accumulators, the sha256 of the per-op finish/start
times and per-device busy times, and the sha256 of the traced
``TransferRecord`` list. The values in ``scheduler_golden.json`` were
recorded from the ndarray event loop that ``Scheduler.run_step`` used
before it was merged with the incremental path's list-native loop; any
refactor of the event loop must reproduce every one of them exactly.

Regenerate (``PYTHONPATH=src python tests/sim/test_scheduler_golden.py``)
only for a change that is *meant* to move simulated times, such as a
cost-model change, and say so in that change.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.sim import ClusterSpec, Scheduler
from repro.sim.placement import resolve_placement
from repro.workloads import get_workload

GOLDEN = Path(__file__).with_name("scheduler_golden.json")
WORKLOADS = {
    "inception_v3": {},
    "gnmt4": {"scale": 0.25},
    "bert": {},
}
CLUSTERS = {"default": ClusterSpec.default, "nvlink": ClusterSpec.nvlink}
SEEDS = range(8)


def seeded_devices(num_ops: int, num_devices: int, seed: int) -> np.ndarray:
    """Even seeds: uniform random devices (heavy cut, link contention).
    Odd seeds: contiguous blocks with ~5% random moves (a realistic,
    pipeline-like placement)."""
    rng = np.random.default_rng(seed)
    if seed % 2 == 0:
        return rng.integers(0, num_devices, num_ops)
    devices = np.arange(num_ops) * (num_devices - 1) // num_ops
    moved = rng.random(num_ops) < 0.05
    devices[moved] = rng.integers(0, num_devices, int(moved.sum()))
    return devices


def sha256(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def schedule_digest(workload: str, cluster_name: str, seed: int) -> dict:
    graph = get_workload(workload, **WORKLOADS[workload])
    cluster = CLUSTERS[cluster_name]()
    devices = seeded_devices(graph.num_nodes, cluster.num_devices, seed)
    placement = resolve_placement(devices, graph, cluster)
    res = Scheduler().run_step(placement, trace=True)
    transfers = np.array(
        [(t.producer, t.src, t.dst, t.start, t.end, t.nbytes) for t in res.transfers],
        dtype=np.float64,
    )
    return {
        "makespan": res.makespan,
        "comm_time": res.comm_time,
        "comm_bytes": res.comm_bytes,
        "finish_times": sha256(res.finish_times),
        "start_times": sha256(res.start_times),
        "device_busy": sha256(res.device_busy),
        "num_transfers": len(res.transfers),
        "transfers": sha256(transfers),
    }


def record() -> dict:
    return {
        f"{w}/{c}/{s}": schedule_digest(w, c, s)
        for w in WORKLOADS
        for c in CLUSTERS
        for s in SEEDS
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("cluster_name", list(CLUSTERS))
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_schedule_matches_golden(golden, workload, cluster_name):
    for seed in SEEDS:
        key = f"{workload}/{cluster_name}/{seed}"
        assert schedule_digest(workload, cluster_name, seed) == golden[key], key


def test_untraced_run_matches_traced():
    graph = get_workload("gnmt4", scale=0.25)
    cluster = ClusterSpec.nvlink()
    placement = resolve_placement(
        seeded_devices(graph.num_nodes, cluster.num_devices, 0), graph, cluster
    )
    sched = Scheduler()
    traced = sched.run_step(placement, trace=True)
    plain = sched.run_step(placement)
    assert plain.transfers is None
    assert plain.makespan == traced.makespan
    assert np.array_equal(plain.finish_times, traced.finish_times)
    assert plain.comm_time == traced.comm_time


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
