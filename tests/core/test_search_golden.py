"""Golden pin of one short seeded Mars search.

``optimize_placement`` on Inception-V3 at ``scale=0.25`` with agent
``"mars"`` and ``fast_profile(seed=0, iterations=6)`` on
``ClusterSpec.default()``. For every search record this pins:

- the float hex of ``best_runtime``;
- the float hex of ``sim_clock``;
- ``n_invalid``.

Everything must match exactly: the trajectory runs through DGI
pre-training, sampling, the simulator, the measurement protocol and the
PPO update, so any change to their arithmetic shows here.

Regenerate (``PYTHONPATH=src python tests/core/test_search_golden.py``)
only for a change that is *meant* to move the search, and say so in that
change.
"""

import json
from pathlib import Path

from repro.config import fast_profile
from repro.core import optimize_placement
from repro.sim import ClusterSpec
from repro.workloads import get_workload

GOLDEN = Path(__file__).with_name("search_golden.json")


def digest() -> dict:
    graph = get_workload("inception_v3", scale=0.25)
    result = optimize_placement(
        graph, ClusterSpec.default(), "mars", fast_profile(seed=0, iterations=6)
    )
    records = result.history.records
    return {
        "best_runtime": [float(r.best_runtime).hex() for r in records],
        "sim_clock": [float(r.sim_clock).hex() for r in records],
        "n_invalid": [int(r.n_invalid) for r in records],
    }


def test_search_matches_golden():
    want = json.loads(GOLDEN.read_text())
    got = digest()
    assert len(got["best_runtime"]) == len(want["best_runtime"]) > 0
    assert got == want


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(digest(), indent=1, sort_keys=True) + "\n")
