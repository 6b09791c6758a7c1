"""Tape size of the Mars agent's policy-update pass.

The update's wall time is interpreter overhead per autograd node, not
FLOPs, so the number of nodes one teacher-forced ``evaluate`` builds is a
deterministic proxy for its cost. Composed from elementwise tensor ops,
the placer built ~69 nodes per op; with fused LSTM and attention steps,
~17. With a segment-level tape (one op per encoder segment, both
directions in one time loop, and one op for the whole decoder) and one
op per GCN encoder pass, the count no longer grows per op: 48 nodes for
Inception-V3's 140 ops at this scale.

Its memory is the bytes the tape holds. Per op and sample, a decoder
step keeps its gate-activation slab (4H floats), its ``[h, context]``
row (2H) and ``c``, ``h`` and ``tanh(c)`` (3H), plus the attention's
weights and the logits. One ``evaluate`` of 5 samples held 18.9 floats
per op, sample and hidden unit while the cell kept a separate tanh and a
sigmoid of the unused cell block; with one slab per step it holds 17.1.
``backward`` frees the tape as it walks it, so a PPO update's passes do
not stack their tapes: its peak stays near one pass's.
"""

import tracemalloc

import numpy as np
import pytest

from repro.config import fast_profile
from repro.core import build_mars_agent
from repro.nn import Tensor
from repro.rl.ppo import PPOUpdater
from repro.sim import ClusterSpec
from repro.workloads import get_workload

MAX_NODES_PER_OP = 1
#: Bytes one ``evaluate`` of 5 samples holds, in floats per op, sample
#: and placer hidden unit.
MAX_TAPE_FLOATS = 18.0
#: One PPO update's traced peak over one evaluate + backward pass's.
MAX_UPDATE_OVER_PASS = 1.15


@pytest.fixture(scope="module")
def inception_agent():
    graph = get_workload("inception_v3", scale=0.25)
    config = fast_profile(seed=0)
    agent = build_mars_agent(graph, ClusterSpec.default(), config)
    return graph, config, agent


def test_evaluate_nodes_per_op(monkeypatch):
    graph = get_workload("inception_v3", scale=0.25)
    agent = build_mars_agent(graph, ClusterSpec.default(), fast_profile(seed=0))
    rollout = agent.sample(5, np.random.default_rng(0))
    make = Tensor._make
    count = 0

    def counting_make(*args):
        nonlocal count
        count += 1
        return make(*args)

    monkeypatch.setattr(Tensor, "_make", staticmethod(counting_make))
    logp, entropy = agent.evaluate(rollout.internal)
    assert logp.requires_grad and entropy.requires_grad
    assert count <= MAX_NODES_PER_OP * graph.num_nodes, count / graph.num_nodes


def _traced(fn) -> tuple:
    """``(held, peak)``: bytes ``fn()``'s result holds and its traced peak."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return held - base, peak - base


def test_evaluate_tape_bytes(inception_agent):
    graph, _, agent = inception_agent
    rollout = agent.sample(5, np.random.default_rng(0))
    agent.evaluate(rollout.internal)  # warm any lazily built state
    held, _ = _traced(lambda: agent.evaluate(rollout.internal))
    floats = held / (8 * graph.num_nodes * 5 * agent.placer.hidden_size)
    assert floats <= MAX_TAPE_FLOATS, floats


def test_update_peak_near_one_pass(inception_agent):
    """Two passes on a 20-sample buffer peak about as high as one: each
    pass's tape is gone before the next one is built."""
    _, config, agent = inception_agent
    rollout = agent.sample(20, np.random.default_rng(0))
    advantages = np.random.default_rng(1).standard_normal(20)
    updater = PPOUpdater(agent, config.trainer.ppo, seed=0)
    assert config.trainer.ppo.epochs * config.trainer.ppo.minibatches == 2
    sub = rollout.subset(np.arange(10))

    def one_pass():
        agent.zero_grad()
        logp, entropy = agent.evaluate(sub.internal)
        (-(logp.mean()) - 0.01 * entropy.mean()).backward()

    one_pass()
    updater.update(rollout, advantages)  # warm both paths
    _, pass_peak = _traced(one_pass)
    _, update_peak = _traced(lambda: updater.update(rollout, advantages))
    assert update_peak <= MAX_UPDATE_OVER_PASS * pass_peak, update_peak / pass_peak
