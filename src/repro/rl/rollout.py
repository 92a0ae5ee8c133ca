"""Trajectory storage for rollout collection.

A :class:`Trajectory` is one episode; a :class:`RolloutBuffer` flattens a
batch of trajectories into arrays the PPO updater consumes, computing
returns and advantage estimates (TD / GAE per paper §5.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

#: Discount factor of the returns and advantages.
GAMMA = 0.99

#: GAE's bias-variance trade-off λ.
LAM = 0.95


@dataclass
class Trajectory:
    """One episode: aligned per-step records."""

    states: list[np.ndarray] = field(default_factory=list)
    actions: list[int] = field(default_factory=list)
    rewards: list[float] = field(default_factory=list)
    log_probs: list[float] = field(default_factory=list)
    values: list[float] = field(default_factory=list)
    masks: list[np.ndarray] = field(default_factory=list)

    def append(
        self,
        state: np.ndarray,
        action: int,
        reward: float,
        log_prob: float,
        value: float,
        mask: np.ndarray,
    ) -> None:
        self.states.append(state)
        self.actions.append(action)
        self.rewards.append(reward)
        self.log_probs.append(log_prob)
        self.values.append(value)
        self.masks.append(mask)

    def __len__(self) -> int:
        return len(self.actions)

    @property
    def total_reward(self) -> float:
        return float(sum(self.rewards))


def discounted_returns(rewards: Sequence[float], gamma: float) -> np.ndarray:
    """Reward-to-go: ``G_t = r_t + gamma * G_{t+1}``."""
    returns = np.zeros(len(rewards))
    running = 0.0
    for t in reversed(range(len(rewards))):
        running = rewards[t] + gamma * running
        returns[t] = running
    return returns


def gae_advantages(
    rewards: Sequence[float],
    values: Sequence[float],
    gamma: float,
    lam: float,
) -> np.ndarray:
    """Generalized Advantage Estimation over one episode.

    The terminal state value is taken as 0 (episodes here always end on a
    terminal condition — the approximation set reached ``k`` tuples).
    """
    n = len(rewards)
    advantages = np.zeros(n)
    next_value = 0.0
    running = 0.0
    for t in reversed(range(n)):
        delta = rewards[t] + gamma * next_value - values[t]
        running = delta + gamma * lam * running
        advantages[t] = running
        next_value = values[t]
    return advantages


@dataclass
class RolloutBatch:
    """Flattened, advantage-annotated batch ready for a PPO update."""

    states: np.ndarray        # (n, state_dim), the environment's dtype
    actions: np.ndarray       # (n,)
    old_log_probs: np.ndarray # (n,)
    returns: np.ndarray       # (n,)
    advantages: np.ndarray    # (n,)
    masks: np.ndarray         # (n, n_actions) bool

    def __len__(self) -> int:
        return len(self.actions)


class RolloutBuffer:
    """Accumulates trajectories and produces normalized batches."""

    def __init__(self) -> None:
        self._trajectories: list[Trajectory] = []

    def add(self, trajectory: Trajectory) -> None:
        if len(trajectory) == 0:
            raise ValueError("cannot add an empty trajectory")
        self._trajectories.append(trajectory)

    def __len__(self) -> int:
        return sum(len(t) for t in self._trajectories)

    def build(self, use_critic: bool = True) -> RolloutBatch:
        """Flatten all stored trajectories into one batch.

        With ``use_critic=False`` (the REINFORCE ablation, paper Fig. 3
        "-ac") the advantage is the raw return; otherwise GAE against the
        recorded critic values. Advantages are standardized over the batch.
        """
        if not self._trajectories:
            raise ValueError("rollout buffer is empty")
        states, actions, log_probs, returns, advantages, masks = [], [], [], [], [], []
        for trajectory in self._trajectories:
            episode_returns = discounted_returns(trajectory.rewards, GAMMA)
            if use_critic:
                episode_adv = gae_advantages(
                    trajectory.rewards, trajectory.values, GAMMA, LAM
                )
            else:
                episode_adv = episode_returns.copy()
            states.extend(trajectory.states)
            actions.extend(trajectory.actions)
            log_probs.extend(trajectory.log_probs)
            returns.extend(episode_returns)
            advantages.extend(episode_adv)
            masks.extend(trajectory.masks)

        advantage_array = np.asarray(advantages, dtype=np.float64)
        if len(advantage_array) > 1:
            std = advantage_array.std()
            if std > 1e-8:
                advantage_array = (advantage_array - advantage_array.mean()) / std

        return RolloutBatch(
            states=np.asarray(states),
            actions=np.asarray(actions, dtype=np.int64),
            old_log_probs=np.asarray(log_probs, dtype=np.float64),
            returns=np.asarray(returns, dtype=np.float64),
            advantages=advantage_array,
            masks=np.asarray(masks, dtype=bool),
        )
