"""Tape size of the Mars agent's policy-update pass.

The update's wall time is interpreter overhead per autograd node, not
FLOPs, so the number of nodes one teacher-forced ``evaluate`` builds is a
deterministic proxy for its cost. Composed from elementwise tensor ops,
the placer built ~69 nodes per op; with fused LSTM and attention steps,
~17. With a segment-level tape (one op per encoder segment, both
directions in one time loop, and one op for the whole decoder) and one
op per GCN encoder pass, the count no longer grows per op: 48 nodes for
Inception-V3's 140 ops at this scale.
"""

import numpy as np

from repro.config import fast_profile
from repro.core import build_mars_agent
from repro.nn import Tensor
from repro.sim import ClusterSpec
from repro.workloads import get_workload

MAX_NODES_PER_OP = 1


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
