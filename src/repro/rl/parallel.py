"""Multi-actor rollout collection.

The paper trains "32 actor and critic networks, asynchronously" with
distinct exploration policies per actor (§5.1). Asynchrony there buys
wall-clock speed on a GPU server; the algorithmically relevant part —
*multiple actors exploring with different policies between updates* — is
reproduced here in lock-step: each logical actor has its own environment
instance, sampling temperature and RNG stream, every round runs the shared
networks once over the stacked states of all actors mid-episode, and all
trajectories feed one shared update.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .policy import ActorNetwork, CriticNetwork, draw_actions
from .rollout import RolloutBuffer, Trajectory

#: Exploration temperatures of the coolest and the hottest logical actor.
TEMPERATURE_LOW = 0.8
TEMPERATURE_HIGH = 1.6

#: Hard cap per episode (a safety net over the environment's own terminal
#: condition).
MAX_EPISODE_STEPS = 10_000


class Environment(abc.ABC):
    """Minimal episodic environment contract (gym-like, with masks).

    A state may be of any dtype ``MLP.forward`` can cast to float64 (ours
    is the bool selection vector); it travels in that dtype to the
    minibatch. The collector keeps every state it is handed, so each must
    be a snapshot, not a view the next ``step`` writes.
    """

    @abc.abstractmethod
    def reset(self) -> tuple[np.ndarray, np.ndarray]:
        """Start an episode; returns ``(state, valid-action mask)``."""

    @abc.abstractmethod
    def step(self, action: int) -> tuple[np.ndarray, float, bool, np.ndarray]:
        """Apply an action; returns ``(state, reward, done, mask)``."""

    @property
    @abc.abstractmethod
    def n_actions(self) -> int:
        """Size of the (fixed) discrete action space."""


@dataclass
class ActorSpec:
    """One logical actor: exploration temperature + its RNG stream."""

    temperature: float
    rng: np.random.Generator


def make_actor_specs(n_actors: int, seed: int) -> list[ActorSpec]:
    """Exploration temperatures evenly spaced over [``TEMPERATURE_LOW``,
    ``TEMPERATURE_HIGH``] (1.0 for a lone actor), one RNG stream per actor."""
    if n_actors < 1:
        raise ValueError(f"need at least one actor, got {n_actors}")
    if n_actors == 1:
        temperatures = [1.0]
    else:
        temperatures = list(np.linspace(TEMPERATURE_LOW, TEMPERATURE_HIGH, n_actors))
    seeds = np.random.SeedSequence(seed).spawn(n_actors)
    return [
        ActorSpec(temperature=float(t), rng=np.random.default_rng(s))
        for t, s in zip(temperatures, seeds)
    ]


class MultiActorCollector:
    """Collects trajectories from N parallel (logical) actors.

    Parameters
    ----------
    env_factory:
        Builds a fresh environment per actor (environments carry mutable
        episode state, so actors must not share one).
    actor / critic:
        The shared networks. The critic is optional (REINFORCE ablation).
    specs:
        Per-actor exploration settings from :func:`make_actor_specs`.
    """

    def __init__(
        self,
        env_factory: Callable[[], Environment],
        actor: ActorNetwork,
        critic: CriticNetwork | None,
        specs: Sequence[ActorSpec],
    ) -> None:
        if not specs:
            raise ValueError("need at least one actor spec")
        self.environments = [env_factory() for _ in specs]
        self.actor = actor
        self.critic = critic
        self.specs = list(specs)

    def collect(self, episodes_per_actor: int, buffer: RolloutBuffer) -> float:
        """Run episodes for every actor; returns the mean episode reward.

        Each round is one actor forward, one critic forward and one masked
        softmax for all actors mid-episode; each then draws from its own
        generator and steps its own environment, and resets and rejoins
        when its episode ends. Trajectories enter ``buffer`` actor by
        actor, episodes in order.
        """
        envs, specs, cap = self.environments, self.specs, MAX_EPISODE_STEPS
        temperatures = np.asarray([spec.temperature for spec in specs])
        episodes: list[list[Trajectory]] = [[] for _ in specs]
        states: list = [None] * len(specs)
        masks: list = [None] * len(specs)
        over = [True] * len(specs)  # no episode yet: every actor starts by resetting

        def awaits_action(i: int) -> bool:
            """Close actor ``i``'s finished episodes; False once all are run."""
            while over[i] or len(episodes[i][-1]) >= cap or not masks[i].any():
                if len(episodes[i]) == episodes_per_actor:
                    return False
                states[i], masks[i] = envs[i].reset()
                episodes[i].append(Trajectory())
                over[i] = False
            return True

        live = [i for i in range(len(specs)) if awaits_action(i)]
        while live:
            stacked_states = np.stack([states[i] for i in live])
            log_probs, probabilities = self.actor.distribution(
                stacked_states, np.stack([masks[i] for i in live]), temperatures[live]
            )
            values = np.zeros(len(live))
            if self.critic is not None:
                values = self.critic.value(stacked_states)
            actions = draw_actions(probabilities, [specs[i].rng for i in live])
            for row, i in enumerate(live):
                action = int(actions[row])
                next_state, reward, over[i], next_mask = envs[i].step(action)
                episodes[i][-1].append(
                    state=states[i],
                    action=action,
                    reward=reward,
                    log_prob=float(log_probs[row, action]),
                    value=float(values[row]),
                    mask=masks[i],
                )
                states[i], masks[i] = next_state, next_mask
            live = [i for i in live if awaits_action(i)]

        rewards: list[float] = []
        for trajectory in (t for actor in episodes for t in actor if len(t) > 0):
            buffer.add(trajectory)
            rewards.append(trajectory.total_reward)
        return float(np.mean(rewards)) if rewards else 0.0
