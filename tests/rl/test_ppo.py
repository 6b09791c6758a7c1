"""Tests for PPO and REINFORCE updaters on a contrived bandit policy."""

import numpy as np
import pytest

from repro.nn import Parameter, Tensor
from repro.nn.functional import log_softmax
from repro.rl.policy import AgentRollout, PolicyAgent
from repro.rl.ppo import PPOConfig, PPOUpdater
from repro.rl.reinforce import ReinforceUpdater
from repro.utils.rng import new_rng


class BanditAgent(PolicyAgent):
    """A single-op, K-device bandit: one learnable logit vector."""

    def __init__(self, k: int = 4):
        super().__init__()
        self.num_ops = 1
        self.num_devices = k
        self.logits = Parameter(np.zeros(k))

    def _dist(self, batch):
        return log_softmax(self.logits.reshape(1, -1).broadcast_to((batch, self.num_devices)), axis=-1)

    def sample(self, n_samples, rng, greedy=0):
        rng = new_rng(rng)
        probs = np.exp(self._dist(1).data[0])
        actions = rng.choice(self.num_devices, size=(n_samples, 1), p=probs / probs.sum())
        lp = self._dist(n_samples).data[np.arange(n_samples), actions[:, 0]][:, None]
        return AgentRollout(placements=actions, internal={"placement": actions}, old_logp=lp)

    def evaluate(self, internal):
        actions = internal["placement"]
        b = actions.shape[0]
        lp_full = self._dist(b)
        idx = (np.arange(b), actions[:, 0])
        logp = lp_full[idx].reshape(b, 1)
        p = lp_full.exp()
        ent = -(p * lp_full).sum(axis=-1).reshape(b, 1).broadcast_to((b, 1))
        return logp, ent


def make_batch(agent, rng, reward_for_action):
    rollout = agent.sample(32, rng)
    rewards = np.array([reward_for_action(a) for a in rollout.placements[:, 0]])
    advantages = rewards - rewards.mean()
    return rollout, advantages


class TestPPOUpdater:
    def test_policy_moves_toward_rewarded_action(self):
        agent = BanditAgent(4)
        updater = PPOUpdater(agent, PPOConfig(learning_rate=0.05, epochs=3, minibatches=2), seed=0)
        rng = np.random.default_rng(0)
        for _ in range(30):
            rollout, adv = make_batch(agent, rng, lambda a: 1.0 if a == 2 else 0.0)
            updater.update(rollout, adv)
        probs = np.exp(agent.logits.data - agent.logits.data.max())
        probs /= probs.sum()
        assert probs[2] > 0.8

    def test_clip_fraction_reported(self):
        agent = BanditAgent(3)
        updater = PPOUpdater(agent, PPOConfig(learning_rate=0.5, epochs=4, minibatches=1), seed=0)
        rng = np.random.default_rng(1)
        rollout, adv = make_batch(agent, rng, lambda a: float(a))
        stats = updater.update(rollout, adv)
        assert 0.0 <= stats.clip_fraction <= 1.0
        assert stats.passes == 4

    def test_zero_advantage_keeps_policy(self):
        agent = BanditAgent(3)
        before = agent.logits.data.copy()
        updater = PPOUpdater(agent, PPOConfig(entropy_coef=0.0), seed=0)
        rollout, _ = make_batch(agent, np.random.default_rng(2), lambda a: 0.0)
        updater.update(rollout, np.zeros(rollout.batch_size))
        assert np.allclose(agent.logits.data, before, atol=1e-9)

    def test_entropy_bonus_flattens_policy(self):
        agent = BanditAgent(3)
        agent.logits.data = np.array([2.0, 0.0, 0.0])
        updater = PPOUpdater(agent, PPOConfig(entropy_coef=5.0, learning_rate=0.1), seed=0)
        rollout, _ = make_batch(agent, np.random.default_rng(3), lambda a: 0.0)
        spread_before = agent.logits.data.max() - agent.logits.data.min()
        updater.update(rollout, np.zeros(rollout.batch_size))
        spread_after = agent.logits.data.max() - agent.logits.data.min()
        assert spread_after < spread_before

    def test_grad_norm_reported_preclip(self):
        agent = BanditAgent(3)
        updater = PPOUpdater(agent, PPOConfig(learning_rate=0.01, grad_clip_norm=1e-9), seed=0)
        rollout, adv = make_batch(agent, np.random.default_rng(4), lambda a: float(a))
        stats = updater.update(rollout, adv)
        # stats.grad_norm is the pre-clip norm, far above the clip threshold.
        assert stats.grad_norm > 1e-9


    def test_policy_loss_stat_builds_no_nodes_after_backward(self, monkeypatch):
        """The reported loss reads the surrogate's value; nothing is added
        to the tape once ``backward`` has run."""
        agent = BanditAgent(3)
        updater = PPOUpdater(agent, PPOConfig(epochs=1, minibatches=1), seed=0)
        rollout, adv = make_batch(agent, np.random.default_rng(5), lambda a: float(a))
        events = []
        make, backward = Tensor._make, Tensor.backward

        def counting_make(*args):
            events.append("make")
            return make(*args)

        def logging_backward(self, *args):
            events.append("backward")
            return backward(self, *args)

        monkeypatch.setattr(Tensor, "_make", staticmethod(counting_make))
        monkeypatch.setattr(Tensor, "backward", logging_backward)
        logp, _ = agent.evaluate(rollout.internal)
        ratio = np.exp(logp.data - rollout.old_logp)
        clipped = np.clip(ratio, 0.8, 1.2)
        expected = -np.minimum(ratio * adv[:, None], clipped * adv[:, None]).mean()
        events.clear()
        stats = updater.update(rollout, adv)
        assert events.count("backward") == 1
        assert events[-1] == "backward"
        assert stats.policy_loss == pytest.approx(expected, rel=1e-12)


class TestReinforce:
    def test_policy_improves(self):
        agent = BanditAgent(4)
        updater = ReinforceUpdater(agent)
        updater.optimizer.lr = 0.1
        rng = np.random.default_rng(5)
        for _ in range(100):
            rollout, adv = make_batch(agent, rng, lambda a: 1.0 if a == 1 else 0.0)
            updater.update(rollout, adv)
        probs = np.exp(agent.logits.data - agent.logits.data.max())
        probs /= probs.sum()
        assert probs[1] > 0.7

    def test_stats_shape(self):
        agent = BanditAgent(3)
        updater = ReinforceUpdater(agent)
        rollout, adv = make_batch(agent, np.random.default_rng(6), lambda a: float(a))
        stats = updater.update(rollout, adv)
        assert stats.passes == 1
        assert np.isfinite(stats.grad_norm)
