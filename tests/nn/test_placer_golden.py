"""Golden pin of the Mars agent's forward values and gradients.

For a seeded Mars agent (``fast_profile`` widths, no pre-training) on
Inception-V3, GNMT-4 and BERT at ``scale=0.25`` on the default cluster,
this pins:

- the actions, and the float hex of every ``log_probs`` and ``entropy``
  entry, of a greedy decode and of a 3-sample seeded decode;
- the float hex of a fixed PPO-style loss on the sampled actions
  (teacher-forced ``evaluate``);
- the gradient of that loss w.r.t. every parameter, as its norm plus 4
  seeded unit-vector projections.

The forward values must match exactly: a change to the autodiff engine or
to the placer's ops (fusion, a new tape) keeps the same NumPy expressions
in the same order. Gradients may differ by summation order only, so they
must match within ``1e-10`` of the parameter's gradient norm.

Regenerate (``PYTHONPATH=src python tests/nn/test_placer_golden.py``)
only for a change that is *meant* to move the agent's outputs, such as a
new initialization or architecture, and say so in that change.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.config import fast_profile
from repro.core import build_mars_agent
from repro.nn import Tensor, minimum, no_grad
from repro.sim import ClusterSpec
from repro.workloads import get_workload

GOLDEN = Path(__file__).with_name("placer_golden.json")
WORKLOADS = ("inception_v3", "gnmt4", "bert")
N_SAMPLES = 3
N_PROJECTIONS = 4
GRAD_RTOL = 1e-10


def _hexes(array: np.ndarray) -> list:
    return [float(x).hex() for x in np.asarray(array).ravel()]


def _decode(agent, n_samples: int, seed: int, greedy: int) -> dict:
    # The body of ``EncoderPlacerPolicy.sample``, keeping the entropy too.
    with no_grad():
        reps = agent.node_representations()
        out = agent.placer.run(
            reps, n_samples=n_samples, rng=np.random.default_rng(seed), greedy=greedy
        )
    return {
        "actions": out.actions.tolist(),
        "log_probs": _hexes(out.log_probs.data),
        "entropy": _hexes(out.entropy.data),
    }


def _ppo_loss(agent, actions: np.ndarray, old_logp: np.ndarray) -> Tensor:
    """A clipped-surrogate loss with fixed, non-degenerate ratios."""
    rng = np.random.default_rng(7)
    old = old_logp + 0.3 * rng.standard_normal(old_logp.shape)
    adv = rng.standard_normal((actions.shape[0], 1))
    logp, entropy = agent.evaluate({"placement": actions})
    ratio = (logp - Tensor(old)).exp()
    clipped = ratio.clip(0.8, 1.2)
    surrogate = minimum(ratio * adv, clipped * adv)
    return -(surrogate.mean()) - 0.01 * entropy.mean()


def _grad_sketch(agent) -> dict:
    rng = np.random.default_rng(11)
    sketch = {}
    for name, p in agent.named_parameters():
        g = np.zeros_like(p.data) if p.grad is None else p.grad
        r = rng.standard_normal((N_PROJECTIONS, p.size))
        r /= np.linalg.norm(r, axis=1, keepdims=True)
        sketch[name] = {
            "norm": float(np.linalg.norm(g)),
            "proj": [float(x) for x in r @ g.ravel()],
        }
    return sketch


def digest(workload: str) -> dict:
    graph = get_workload(workload, scale=0.25)
    agent = build_mars_agent(graph, ClusterSpec.default(), fast_profile(seed=0))
    greedy = _decode(agent, 1, seed=0, greedy=1)
    sampled = _decode(agent, N_SAMPLES, seed=1, greedy=0)
    actions = np.asarray(sampled["actions"], dtype=np.int64)
    old_logp = np.array([float.fromhex(h) for h in sampled["log_probs"]]).reshape(
        actions.shape
    )
    agent.zero_grad()
    loss = _ppo_loss(agent, actions, old_logp)
    loss.backward()
    return {
        "greedy": greedy,
        "sampled": sampled,
        "loss": loss.item().hex(),
        "grads": _grad_sketch(agent),
    }


def record() -> dict:
    return {w: digest(w) for w in WORKLOADS}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_placer_matches_golden(golden, workload):
    want = golden[workload]
    got = digest(workload)
    for decode in ("greedy", "sampled"):
        for key in ("actions", "log_probs", "entropy"):
            assert got[decode][key] == want[decode][key], f"{decode}.{key}"
    assert got["loss"] == want["loss"]
    assert got["grads"].keys() == want["grads"].keys()
    for name, g in want["grads"].items():
        tol = GRAD_RTOL * g["norm"]
        assert abs(got["grads"][name]["norm"] - g["norm"]) <= tol, name
        diff = np.abs(np.subtract(got["grads"][name]["proj"], g["proj"]))
        assert np.all(diff <= tol), (name, diff.max(), tol)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
