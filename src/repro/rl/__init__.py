"""Reinforcement-learning machinery (paper Section 3.4).

PPO with the paper's hyper-parameters, the reward transform
``R = -sqrt(per_step_time)`` with an exponential-moving-average baseline,
rollout buffers over factored placement policies, and the joint training
loop that also accounts for the simulated wall-clock cost of training the
agent (Fig. 8).
"""

from repro.rl.policy import PolicyAgent, AgentRollout
from repro.rl.reward import RewardConfig, RewardTracker
from repro.rl.buffer import RolloutBuffer
from repro.rl.ppo import PPOConfig, PPOUpdater
from repro.rl.reinforce import ReinforceUpdater
from repro.rl.trainer import TrainerConfig, JointTrainer, SearchHistory, SearchRecord

__all__ = [
    "PolicyAgent",
    "AgentRollout",
    "RewardConfig",
    "RewardTracker",
    "RolloutBuffer",
    "PPOConfig",
    "PPOUpdater",
    "ReinforceUpdater",
    "TrainerConfig",
    "JointTrainer",
    "SearchHistory",
    "SearchRecord",
]
