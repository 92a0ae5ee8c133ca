"""Policy updates: PPO-clip, A2C, and REINFORCE variants.

The full agent is the paper's actor-critic PPO (§5.1): clipped surrogate
objective, entropy bonus for exploration, and a KL coefficient that
penalizes large policy moves. The two ablation variants of Fig. 3 are
selected by flags:

* ``use_clip=False``  → "-ppo": plain advantage actor-critic (no ratio,
  no clipping, no KL penalty).
* ``use_critic=False`` (together with ``use_clip=False``) → "-ppo -ac":
  REINFORCE with reward-to-go.

All gradients are derived analytically against the masked softmax — see
the inline notes — and applied with Adam.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..obs import trace as _trace
from .nn import ADAM_BLOCK, Adam, masked_softmax
from .policy import ActorNetwork, CriticNetwork
from .rollout import RolloutBatch


@dataclass
class PPOConfig:
    """Hyper-parameters (paper defaults from §6.1)."""

    learning_rate: float = 5e-5
    clip_epsilon: float = 0.2
    entropy_coef: float = 0.001
    kl_coef: float = 0.2
    value_coef: float = 0.5
    update_epochs: int = 4
    minibatch_size: int = 64
    max_grad_norm: float = 5.0
    use_clip: bool = True
    use_critic: bool = True


@dataclass
class UpdateStats:
    """Diagnostics from one update call.

    ``grad_norm`` is the largest *pre-clip* actor gradient norm seen in
    any minibatch (clipping caps what Adam sees at ``max_grad_norm``, so
    the raw norm is the one that reveals instability).
    ``explained_variance`` is the critic's classic
    ``1 − Var(returns − values) / Var(returns)`` on the whole batch —
    near 1 when the value function tracks returns, ≤ 0 when it is
    useless or actively wrong.
    """

    policy_loss: float = 0.0
    value_loss: float = 0.0
    entropy: float = 0.0
    kl_divergence: float = 0.0
    clip_fraction: float = 0.0
    explained_variance: float = 0.0
    grad_norm: float = 0.0
    n_samples: int = 0


class NonFiniteUpdateError(ValueError):
    """A PPO update ended with a NaN or infinite loss, entropy or KL."""


#: Floor of ``log p`` in the entropy and KL terms (``p`` clamped at 1e-12).
_LOG_FLOOR = float(np.log(1e-12))


def _clip_gradients(gradients: list[np.ndarray], max_norm: float) -> float:
    """Global-norm clip, in place; returns the pre-clip norm."""
    total = float(np.sqrt(sum(float(np.vdot(g, g)) for g in gradients)))
    if total > max_norm > 0:
        scale = max_norm / (total + 1e-12)
        for g in gradients:
            g *= scale
    return total


class PPOUpdater:
    """Updates an actor (and optionally a critic) from rollout batches."""

    def __init__(
        self,
        actor: ActorNetwork,
        critic: Optional[CriticNetwork],
        config: Optional[PPOConfig] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.config = config or PPOConfig()
        if self.config.use_critic and critic is None:
            raise ValueError("use_critic=True requires a critic network")
        self.actor = actor
        self.critic = critic
        self.rng = rng or np.random.default_rng(0)
        self.actor_optimizer = Adam(
            actor.net.parameters(), learning_rate=self.config.learning_rate
        )
        self.critic_optimizer = (
            Adam(critic.net.parameters(), learning_rate=self.config.learning_rate * 10)
            if critic is not None
            else None
        )

    # -------------------------------------------------------------- #
    def update(self, batch: RolloutBatch) -> UpdateStats:
        """Run K epochs of minibatch updates on one rollout batch, the
        critic's on a second thread beside the actor's."""
        config = self.config
        n = len(batch)
        stats = UpdateStats(n_samples=n)
        if n == 0:
            return stats

        # π_old for the KL penalty, before any step moves π: the one
        # batch × |A| float array of this call, and only when the branch of
        # ``_minibatch_update`` that reads it is on.
        use_kl = config.use_clip and config.kl_coef > 0
        old_log_dist = (
            self.actor.log_probs(batch.states, batch.masks) if use_kl else None
        )
        # Every epoch's permutation, drawn as the epoch loop drew them.
        slices = [
            order[start : start + config.minibatch_size]
            for order in [self.rng.permutation(n) for _ in range(config.update_epochs)]
            for start in range(0, n, config.minibatch_size)
        ]
        n_updates = len(slices)
        # The critic reads nothing the actor writes: its steps run as one
        # task on a second thread, joined (even on an exception) by ``with``.
        with ThreadPoolExecutor(max_workers=1, thread_name_prefix="ppo-critic") as lane:
            critic_task = (
                lane.submit(self._critic_epochs, batch, slices)
                if config.use_critic
                else None
            )
            scratch = np.empty((2, ADAM_BLOCK))
            for idx in slices:
                mb_stats = self._minibatch_update(
                    batch, idx, old_log_dist[idx] if use_kl else None, scratch
                )
                stats.policy_loss += mb_stats.policy_loss
                stats.entropy += mb_stats.entropy
                stats.kl_divergence += mb_stats.kl_divergence
                stats.clip_fraction += mb_stats.clip_fraction
                stats.grad_norm = max(stats.grad_norm, mb_stats.grad_norm)
            if critic_task is not None:
                stats.value_loss = critic_task.result()

        if n_updates:
            stats.policy_loss /= n_updates
            stats.value_loss /= n_updates
            stats.entropy /= n_updates
            stats.kl_divergence /= n_updates
            stats.clip_fraction /= n_updates
        # A NaN/inf advantage, ratio or gradient reaches these four within
        # the same update; a diverged fit must not train on silently.
        for name in ("policy_loss", "value_loss", "entropy", "kl_divergence"):
            value = getattr(stats, name)
            if not math.isfinite(value):
                raise NonFiniteUpdateError(
                    f"PPO update diverged: {name} is {value!r} "
                    f"(batch of {n} samples, {n_updates} minibatch steps)"
                )
        del old_log_dist  # not alive next to the critic's whole-batch pass
        stats.explained_variance = self._explained_variance(batch)
        return stats

    def _explained_variance(self, batch: RolloutBatch) -> float:
        """Critic quality after the update: 1 − Var(R − V) / Var(R)."""
        if self.critic is None or len(batch) == 0:
            return 0.0
        values = self.critic.value(batch.states)
        var_returns = float(np.var(batch.returns))
        if var_returns < 1e-12:
            return 0.0
        return float(1.0 - np.var(batch.returns - values) / var_returns)

    # -------------------------------------------------------------- #
    def _critic_epochs(self, batch: RolloutBatch, slices: list[np.ndarray]) -> float:
        """The critic's gradient steps over ``slices``, in order, through a
        scratch of its own; returns the sum of their value losses."""
        config = self.config
        assert self.critic is not None and self.critic_optimizer is not None
        scratch = np.empty((2, ADAM_BLOCK))
        value_loss = 0.0
        with _trace.span("train.update.critic"):
            for idx in slices:
                states = np.asarray(batch.states[idx], dtype=np.float64)
                values_out, value_cache = self.critic.net.forward(states)
                errors = values_out[:, 0] - batch.returns[idx]
                value_loss += float(np.mean(errors ** 2))
                grad_values = (2.0 * errors / len(idx))[:, None] * config.value_coef
                v_weight_grads, v_bias_grads = self.critic.net.backward(
                    value_cache, grad_values
                )
                v_gradients = v_weight_grads + v_bias_grads
                _clip_gradients(v_gradients, config.max_grad_norm)
                self.critic_optimizer.step(v_gradients, scratch)
        return value_loss

    def _minibatch_update(
        self,
        batch: RolloutBatch,
        idx: np.ndarray,
        old_log_dist: Optional[np.ndarray],
        scratch: np.ndarray,
    ) -> UpdateStats:
        """One actor gradient step; ``old_log_dist`` is this minibatch's own
        copy of π_old's rows, overwritten as work space (``None`` without
        the KL term, its only reader)."""
        config = self.config
        # States travel in the dtype the environment gave them (bool for
        # ours); each lane makes its own cast.
        states = np.asarray(batch.states[idx], dtype=np.float64)
        actions = batch.actions[idx]
        advantages = batch.advantages[idx]
        m = len(idx)
        rows = np.arange(m)

        logits, cache = self.actor.net.forward(states)
        # Masked entries: log_dist = -inf, probs = 0 — every |A|-wide term
        # below is a multiple of probs or old_probs, so it is 0 there too.
        log_dist, probs = masked_softmax(logits, batch.masks[idx])
        log_pi = log_dist[rows, actions]

        if config.use_clip:
            ratio = np.exp(log_pi - batch.old_log_probs[idx])
            clipped = np.clip(ratio, 1.0 - config.clip_epsilon, 1.0 + config.clip_epsilon)
            surrogate_1 = ratio * advantages
            surrogate_2 = clipped * advantages
            take_unclipped = surrogate_1 <= surrogate_2
            policy_loss = -float(np.mean(np.minimum(surrogate_1, surrogate_2)))
            clip_fraction = float(np.mean(~take_unclipped))
            # dL/dlogπ = −ratio·A when the unclipped branch is active, else 0.
            g = np.where(take_unclipped, -ratio * advantages, 0.0)
        else:
            policy_loss = -float(np.mean(log_pi * advantages))
            clip_fraction = 0.0
            g = -advantages

        # d log π(a|s) / d logits = onehot(a) − p   (masked softmax identity)
        g = g / m
        grad_logits = probs * -g[:, None]
        grad_logits[rows, actions] += g

        # Entropy bonus: L −= c_ent · H;  dH/dz_j = −p_j (log p_j + H).
        safe_log = np.maximum(log_dist, _LOG_FLOOR, out=log_dist)
        p_log_p = probs * safe_log
        entropy = -np.sum(p_log_p, axis=1)
        p_log_p += probs * entropy[:, None]
        p_log_p *= config.entropy_coef / m
        grad_logits += p_log_p

        # KL(π_old ‖ π) penalty (PPO variant only): dKL/dz = p − p_old.
        kl = 0.0
        if config.use_clip and config.kl_coef > 0:
            old_probs = np.exp(old_log_dist)
            np.maximum(old_log_dist, _LOG_FLOOR, out=old_log_dist)
            old_log_dist -= safe_log
            old_log_dist *= old_probs
            kl = float(np.mean(np.sum(np.where(probs > 0, old_log_dist, 0.0), axis=1)))
            probs -= old_probs
            probs *= config.kl_coef / m
            grad_logits += probs

        weight_grads, bias_grads = self.actor.net.backward(cache, grad_logits)
        gradients = weight_grads + bias_grads
        grad_norm = _clip_gradients(gradients, config.max_grad_norm)
        self.actor_optimizer.step(gradients, scratch)

        return UpdateStats(
            policy_loss=policy_loss,
            entropy=float(np.mean(entropy)),
            kl_divergence=kl,
            clip_fraction=clip_fraction,
            grad_norm=grad_norm,
            n_samples=m,
        )
