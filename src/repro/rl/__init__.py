"""Reinforcement-learning substrate: numpy MLPs, PPO, multi-actor rollouts.

Replaces the paper's PyTorch + Ray stack (see DESIGN.md §2). Everything is
deterministic given explicit ``numpy.random.Generator`` seeds.
"""

from .nn import MLP, Adam, softmax
from .parallel import ActorSpec, Environment, MultiActorCollector, make_actor_specs
from .policy import ActorNetwork, CriticNetwork, PolicyDecision
from .ppo import NonFiniteUpdateError, PPOConfig, PPOUpdater, UpdateStats
from .rollout import (
    RolloutBatch,
    RolloutBuffer,
    Trajectory,
    discounted_returns,
    gae_advantages,
)

__all__ = [
    "ActorNetwork",
    "ActorSpec",
    "Adam",
    "CriticNetwork",
    "Environment",
    "MLP",
    "MultiActorCollector",
    "NonFiniteUpdateError",
    "PPOConfig",
    "PPOUpdater",
    "PolicyDecision",
    "RolloutBatch",
    "RolloutBuffer",
    "Trajectory",
    "UpdateStats",
    "discounted_returns",
    "gae_advantages",
    "make_actor_specs",
    "softmax",
]
