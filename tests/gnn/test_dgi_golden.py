"""Golden pin of DGI pre-training (paper Section 3.2).

For a seeded Mars agent (``fast_profile`` widths and its 150 pre-training
iterations) on Inception-V3 and BERT at ``scale=0.25`` on the default
cluster, this pins:

- the float hex of every entry of the ``pretrain_encoder`` loss curve;
- the best iteration;
- the restored encoder state, per tensor as the float hex of its norm
  plus 4 seeded unit-vector projections;
- the float hex of every entry of one ``node_representations()`` forward
  with the restored state, one space-joined string per node.

Everything must match exactly. The encoder and DGI ops keep the NumPy
expressions of the composed tensor ops they replace, and each parameter's
gradient is accumulated in the same order: the permuted view's
contribution first, then the clean view's.

Regenerate (``PYTHONPATH=src python tests/gnn/test_dgi_golden.py``) only
for a change that is *meant* to move pre-training, such as a new
initialization or objective, and say so in that change.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.config import fast_profile
from repro.core import build_mars_agent
from repro.nn import no_grad
from repro.sim import ClusterSpec
from repro.workloads import get_workload

GOLDEN = Path(__file__).with_name("dgi_golden.json")
WORKLOADS = ("inception_v3", "bert")
N_PROJECTIONS = 4


def _state_sketch(state: dict) -> dict:
    rng = np.random.default_rng(11)
    sketch = {}
    for name in sorted(state):
        v = np.asarray(state[name], dtype=float).ravel()
        r = rng.standard_normal((N_PROJECTIONS, v.size))
        r /= np.linalg.norm(r, axis=1, keepdims=True)
        sketch[name] = {
            "norm": float(np.linalg.norm(v)).hex(),
            "proj": [float(x).hex() for x in r @ v],
        }
    return sketch


def digest(workload: str) -> dict:
    graph = get_workload(workload, scale=0.25)
    config = fast_profile(seed=0)
    agent = build_mars_agent(graph, ClusterSpec.default(), config)
    agent.pretrain(config.pretrain, seed=config.seed)
    result = agent.pretrain_result
    with no_grad():
        reps = agent.node_representations().data
    return {
        "losses": [float(x).hex() for x in result.losses],
        "best_iteration": result.best_iteration,
        "state": _state_sketch(agent.encoder.state_dict()),
        "reps": [" ".join(float(x).hex() for x in row) for row in reps],
    }


def record() -> dict:
    return {w: digest(w) for w in WORKLOADS}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_pretraining_matches_golden(golden, workload):
    want = golden[workload]
    got = digest(workload)
    assert got["losses"] == want["losses"]
    assert got["best_iteration"] == want["best_iteration"]
    assert got["state"] == want["state"]
    assert got["reps"] == want["reps"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
