"""The ASQP-RL agent: actor-critic PPO over the tabular action space.

Bundles network construction from :class:`~repro.core.config.ASQPConfig`
(including the Fig. 3 ablation variants) and supports *expansion* of the
action space — used when drift fine-tuning adds actions for new queries:
existing weights are preserved and new rows/columns are freshly
initialized, so the fine-tuned policy starts from the trained one.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..rl.nn import MLP
from ..rl.policy import ActorNetwork, CriticNetwork
from ..rl.ppo import PPOConfig, PPOUpdater
from .config import ASQPConfig


class ASQPAgent:
    """Actor (+ optional critic) + PPO updater, configured per ablation."""

    def __init__(
        self,
        n_actions: int,
        config: ASQPConfig,
        rng: Optional[np.random.Generator] = None,
        networks: Optional[tuple[ActorNetwork, Optional[CriticNetwork]]] = None,
    ) -> None:
        """``rng`` (default ``default_rng(config.seed)``) draws the actor's
        and then the critic's Glorot weights and nothing else; a loaded
        model passes its stored ``networks`` instead, and nothing is drawn."""
        self.config = config
        if networks is None:
            rng = rng or np.random.default_rng(config.seed)
            networks = (
                ActorNetwork(n_actions, rng),
                CriticNetwork(n_actions, rng) if config.use_actor_critic else None,
            )
        self.actor, self.critic = networks
        self._updater_rng = np.random.default_rng(config.seed + 101)
        self.updater = self._make_updater()

    @property
    def n_actions(self) -> int:
        return self.actor.n_actions

    def _make_updater(self) -> PPOUpdater:
        ppo_config = PPOConfig(
            learning_rate=self.config.learning_rate,
            entropy_coef=self.config.entropy_coef,
            kl_coef=self.config.kl_coef,
            update_epochs=self.config.update_epochs,
            use_clip=self.config.use_ppo_clip,
            use_critic=self.config.use_actor_critic,
        )
        return PPOUpdater(self.actor, self.critic, ppo_config, rng=self._updater_rng)

    # -------------------------------------------------------------- #
    def expand_action_space(self, new_n_actions: int) -> None:
        """Grow the networks to a larger action space, preserving weights.

        The state is the multi-hot selection vector, so both the actor's
        input and output dimensions (and the critic's input) grow from
        ``n`` to ``new_n_actions``.
        """
        old_n = self.n_actions
        if new_n_actions < old_n:
            raise ValueError(
                f"cannot shrink the action space: {old_n} -> {new_n_actions}"
            )
        if new_n_actions == old_n:
            return
        init_rng = np.random.default_rng(self.config.seed + 997)
        self.actor = _expanded_actor(self.actor, new_n_actions, init_rng)
        if self.critic is not None:
            self.critic = _expanded_critic(self.critic, new_n_actions, init_rng)
        # Fresh optimizer state for the new parameter shapes.
        self.updater = self._make_updater()


def _copy_overlap(target: MLP, source: MLP) -> None:
    """Copy the overlapping sub-blocks of every layer from source to target."""
    for t_w, s_w in zip(target.weights, source.weights):
        rows = min(t_w.shape[0], s_w.shape[0])
        cols = min(t_w.shape[1], s_w.shape[1])
        t_w[:rows, :cols] = s_w[:rows, :cols]
    for t_b, s_b in zip(target.biases, source.biases):
        n = min(len(t_b), len(s_b))
        t_b[:n] = s_b[:n]


def _expanded_actor(
    actor: ActorNetwork, new_n_actions: int, rng: np.random.Generator
) -> ActorNetwork:
    expanded = ActorNetwork(new_n_actions, rng)
    _copy_overlap(expanded.net, actor.net)
    return expanded


def _expanded_critic(
    critic: CriticNetwork, new_state_dim: int, rng: np.random.Generator
) -> CriticNetwork:
    expanded = CriticNetwork(new_state_dim, rng)
    _copy_overlap(expanded.net, critic.net)
    return expanded
