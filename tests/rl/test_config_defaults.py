"""Regression tests: default configs must not be shared across instances.

``config: PPOConfig = PPOConfig()`` in a signature evaluates once at
import time — every updater built with the default then aliases the same
mutable dataclass, so tuning one agent silently reconfigures all others.
"""

import numpy as np

from repro.rl.ppo import PPOConfig, PPOUpdater
from repro.rl.reinforce import ReinforceConfig, ReinforceUpdater
from repro.rl.reward import RewardConfig, RewardTracker
from repro.rl.trainer import JointTrainer, TrainerConfig
from repro.sim import ClusterSpec, PlacementEnv
from tests.helpers import tiny_graph


class _StubAgent:
    """Just enough of PolicyAgent for updater construction."""

    def __init__(self):
        from repro.nn import Tensor

        self._params = [Tensor(np.zeros(3), requires_grad=True)]

    def parameters(self):
        return self._params


def test_ppo_default_configs_independent():
    a = PPOUpdater(_StubAgent())
    b = PPOUpdater(_StubAgent())
    assert a.config is not b.config
    a.config.clip_ratio = 0.99
    assert b.config.clip_ratio == PPOConfig().clip_ratio


def test_reinforce_default_configs_independent():
    a = ReinforceUpdater(_StubAgent())
    b = ReinforceUpdater(_StubAgent())
    assert a.config is not b.config
    a.config.learning_rate = 123.0
    assert b.config.learning_rate == ReinforceConfig().learning_rate


def test_reward_tracker_default_configs_independent():
    a = RewardTracker()
    b = RewardTracker()
    assert a.config is not b.config
    a.config.ema_mu = 0.0
    assert b.config.ema_mu == RewardConfig().ema_mu


def test_explicit_config_still_honoured():
    cfg = PPOConfig(clip_ratio=0.42)
    assert PPOUpdater(_StubAgent(), cfg).config is cfg


def test_trainer_default_configs_independent():
    class _SamplingStub(_StubAgent):
        def sample(self, n, rng):  # pragma: no cover - never called here
            raise NotImplementedError

    env = PlacementEnv(tiny_graph(), ClusterSpec.default())
    a = JointTrainer(_SamplingStub(), env)
    b = JointTrainer(_SamplingStub(), env)
    assert a.config is not b.config
    a.config.iterations = 7
    assert b.config.iterations == TrainerConfig().iterations
