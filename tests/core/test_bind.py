"""Binding a loaded agent's parameters to another graph.

``PolicyAgent.bind`` must give exactly the agent ``load_agent`` builds
onto that graph, over the same module objects.
"""

import numpy as np
import pytest

from repro.config import fast_profile
from repro.core import load_agent, save_agent
from repro.core.search import AGENT_BUILDERS, build_agent
from repro.sim import ClusterSpec
from repro.workloads import build_transformer, build_vgg16
from tests.helpers import tiny_graph


@pytest.fixture(scope="module")
def setting():
    # Both graphs have more ops than fast_profile's 24 groups, so the
    # grouper kinds bind across them too.
    source = build_vgg16(scale=0.25, batch_size=4)
    target = build_transformer(scale=0.25, batch_size=4)
    return source, target, ClusterSpec.default(), fast_profile(seed=2)


def _rollouts(agent):
    return [
        agent.sample(1, np.random.default_rng(0), greedy=True),
        agent.sample(16, np.random.default_rng(11)),
    ]


@pytest.mark.parametrize("kind", sorted(AGENT_BUILDERS))
def test_bind_equals_fresh_load(setting, tmp_path, kind):
    source, target, cluster, cfg = setting
    agent, _ = build_agent(kind, source, cluster, cfg, None)
    path = str(tmp_path / "agent")
    save_agent(path, agent, kind, workload=source.name, config=cfg)

    params, _ = load_agent(path, source, cluster)
    bound = params.bind(target, cluster)
    fresh, _ = load_agent(path, target, cluster)

    assert bound.num_ops == target.num_nodes
    assert [name for name, _ in bound.named_parameters()] == [
        name for name, _ in fresh.named_parameters()
    ]
    # The binding shares the parameters' modules, so their tensors too.
    assert all(
        a is b
        for (_, a), (_, b) in zip(bound.named_parameters(), params.named_parameters())
    )
    assert len(bound.parameters()) == len(fresh.parameters())
    for got, want in zip(_rollouts(bound), _rollouts(fresh)):
        assert np.array_equal(got.placements, want.placements)
        assert np.array_equal(got.old_logp, want.old_logp)
        assert got.internal.keys() == want.internal.keys()
        for key in want.internal:
            assert np.array_equal(got.internal[key], want.internal[key])


def test_bind_leaves_the_parameters_agent_unchanged(setting):
    source, target, cluster, cfg = setting
    agent, _ = build_agent("mars_no_pretrain", source, cluster, cfg, None)
    before = _rollouts(agent)
    agent.bind(target, cluster)
    for got, want in zip(_rollouts(agent), before):
        assert np.array_equal(got.placements, want.placements)
        assert np.array_equal(got.old_logp, want.old_logp)


@pytest.mark.parametrize("kind", ["mars_no_pretrain", "grouper_placer"])
def test_bind_rejects_other_device_count(setting, kind):
    source, target, cluster, cfg = setting
    agent, _ = build_agent(kind, source, cluster, cfg, None)
    with pytest.raises(ValueError, match="devices"):
        agent.bind(target, ClusterSpec.default(num_gpus=2))


def test_grouper_bind_rejects_other_group_count(setting):
    source, _, cluster, cfg = setting
    agent, _ = build_agent("grouper_placer", source, cluster, cfg, None)
    small = tiny_graph()  # 6 ops: 6 groups, the parameters assign 24
    with pytest.raises(ValueError, match="groups"):
        agent.bind(small, cluster)
