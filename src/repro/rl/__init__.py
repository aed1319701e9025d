"""Reinforcement-learning substrate: PPO actor-critic over numpy.

Implements the machinery Algorithm 1 of the paper requires: an experience
replay buffer, generalized advantage estimation, running normalizers, a
Gaussian MLP actor, an MLP critic and the PPO-clip update.
"""

from repro.rl.spaces import Box
from repro.rl.buffer import RolloutBuffer, Transition
from repro.rl.guards import (
    arrays_finite,
    params_finite,
    restore_snapshot,
    take_snapshot,
)
from repro.rl.gae import (
    compute_gae,
    compute_gae_reference,
    td_targets,
)
from repro.rl.normalization import ObservationNormalizer, RewardScaler
from repro.rl.policy import Critic, GaussianActor
from repro.rl.shared_policy import SharedGaussianActor
from repro.rl.ppo import PPOConfig, PPOUpdater, UpdateStats
from repro.rl.a2c import A2CUpdater
from repro.rl.ddpg import DDPGAgent, DDPGConfig
from repro.rl.replay import ReplayMemory
from repro.rl.agent import AgentConfig, PPOAgent

__all__ = [
    "Box",
    "Transition",
    "RolloutBuffer",
    "compute_gae",
    "compute_gae_reference",
    "td_targets",
    "ObservationNormalizer",
    "RewardScaler",
    "GaussianActor",
    "SharedGaussianActor",
    "Critic",
    "PPOConfig",
    "PPOUpdater",
    "UpdateStats",
    "A2CUpdater",
    "DDPGAgent",
    "DDPGConfig",
    "ReplayMemory",
    "AgentConfig",
    "PPOAgent",
    "arrays_finite",
    "params_finite",
    "take_snapshot",
    "restore_snapshot",
]
