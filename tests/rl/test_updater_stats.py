"""Regression tests: both updaters report unified UpdateStats health
fields (entropy, grad_norm, approx_kl) the watchdog can consume."""

import math

import numpy as np
import pytest

from repro.rl.ppo import PPOConfig, PPOUpdater
from repro.rl.reinforce import ReinforceConfig, ReinforceUpdater
from tests.rl.test_ppo import BanditAgent, make_batch


def updaters():
    return [
        ("ppo", lambda agent: PPOUpdater(agent, PPOConfig(), seed=0)),
        ("reinforce", lambda agent: ReinforceUpdater(agent, ReinforceConfig())),
    ]


@pytest.mark.parametrize("name,build", updaters(), ids=lambda u: u if isinstance(u, str) else "")
def test_health_fields_finite_and_meaningful(name, build):
    agent = BanditAgent(4)
    updater = build(agent)
    rollout, adv = make_batch(agent, np.random.default_rng(0), lambda a: float(a))
    stats = updater.update(rollout, adv)
    assert math.isfinite(stats.policy_loss)
    assert math.isfinite(stats.approx_kl)
    assert stats.entropy > 0.0  # uniform init policy is maximally entropic
    assert stats.entropy <= math.log(4) + 1e-9
    assert stats.grad_norm >= 0.0 and math.isfinite(stats.grad_norm)
    assert stats.passes >= 1


@pytest.mark.parametrize(
    "build",
    [u[1] for u in updaters()],
    ids=[u[0] for u in updaters()],
)
def test_approx_kl_zero_on_first_fresh_batch(build):
    """The first update evaluates the exact sampling policy, so the
    pre-update drift mean(old_logp - new_logp) is 0 for every algorithm."""
    agent = BanditAgent(3)
    updater = build(agent)
    rollout, adv = make_batch(agent, np.random.default_rng(1), lambda a: float(a))
    stats = updater.update(rollout, adv)
    # PPO takes multiple passes, so its reported approx_kl is post-drift;
    # single-pass updaters evaluate strictly before stepping.
    if stats.passes == 1:
        assert stats.approx_kl == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize(
    "build",
    [u[1] for u in updaters()[1:]],  # reinforce
    ids=["reinforce"],
)
def test_approx_kl_nonzero_on_stale_rollout(build):
    """Re-updating on a stale rollout shows real policy drift."""
    agent = BanditAgent(3)
    updater = build(agent)
    updater.optimizer.lr = 0.5
    rollout, adv = make_batch(agent, np.random.default_rng(2), lambda a: float(a))
    updater.update(rollout, adv)
    stats = updater.update(rollout, adv)  # same (now stale) rollout
    assert abs(stats.approx_kl) > 1e-6


@pytest.mark.parametrize(
    "build",
    [u[1] for u in updaters()[1:]],  # reinforce
    ids=["reinforce"],
)
def test_policy_loss_excludes_entropy_bonus(build):
    """Doubling entropy_coef changes the total objective but must not leak
    into the reported policy_loss."""
    stats_by_coef = {}
    for coef in (0.0, 10.0):
        agent = BanditAgent(3)
        updater = build(agent)
        updater.config.entropy_coef = coef
        rollout, adv = make_batch(agent, np.random.default_rng(3), lambda a: float(a))
        stats_by_coef[coef] = updater.update(rollout, adv)
    assert stats_by_coef[0.0].policy_loss == pytest.approx(
        stats_by_coef[10.0].policy_loss, abs=1e-9
    )


def test_clip_fraction_zero_for_unclipped_algorithms():
    agent = BanditAgent(3)
    rollout, adv = make_batch(agent, np.random.default_rng(4), lambda a: float(a))
    stats = ReinforceUpdater(agent).update(rollout, adv)
    assert stats.clip_fraction == 0.0
