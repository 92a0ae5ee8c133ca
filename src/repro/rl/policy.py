"""Actor and critic networks over a masked discrete action space.

Mirrors the paper's architecture (§5.1): both networks take the multi-hot
state over the action space; the actor ends in a softmax over actions
(invalid actions masked to -inf, per the action-masking technique of
[Huang & Ontañón]), the critic in a single linear value output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .nn import MLP, masked_log_softmax_, masked_softmax

#: Hidden layer widths of the actor and the critic.
HIDDEN = (128, 64)


@dataclass
class PolicyDecision:
    """One sampled action with its bookkeeping for PPO."""

    action: int
    log_prob: float
    probabilities: np.ndarray


class ActorNetwork:
    """Policy network π_θ(a|s) with action masking and a temperature knob.

    Temperature scales logits before the softmax; the parallel actor
    collector gives each actor a distinct temperature, implementing the
    paper's "different exploration policies are explicitly used in each
    actor-critic to maximize diversity".
    """

    def __init__(
        self,
        n_actions: int,
        rng: Optional[np.random.Generator] = None,
        net: Optional[MLP] = None,
    ) -> None:
        """Glorot weights drawn from ``rng``, or ``net`` as it is (a loaded
        model's stored weights, of the same layer sizes)."""
        if n_actions < 1:
            raise ValueError(f"need at least one action, got {n_actions}")
        self.n_actions = n_actions
        # The state is the multi-hot selection over the actions.
        self.net = net if net is not None else MLP([n_actions, *HIDDEN, n_actions], rng)

    # -------------------------------------------------------------- #
    def logits(self, states: np.ndarray) -> np.ndarray:
        return self.net.predict(states)

    def distribution(
        self, states: np.ndarray, masks: np.ndarray, temperature=1.0
    ) -> tuple[np.ndarray, np.ndarray]:
        """Masked ``(log π, π)`` for a stack of states; ``temperature`` is
        one value or one per row (actors explore at different ones)."""
        scale = np.maximum(np.asarray(temperature, dtype=np.float64), 1e-6)
        return masked_softmax(self.logits(states) / scale.reshape(-1, 1), masks)

    def log_probs(self, states: np.ndarray, masks: np.ndarray) -> np.ndarray:
        """``distribution(states, masks)[0]`` bit for bit, written over its own
        logits: the one batch × |A| array this allocates is the one it returns."""
        return masked_log_softmax_(self.logits(states), masks)

    def sample(
        self,
        state: np.ndarray,
        mask: np.ndarray,
        rng: np.random.Generator,
        temperature: float = 1.0,
    ) -> PolicyDecision:
        """Sample one masked action from π(a|s)."""
        log_probs, probabilities = self.distribution(
            state[None, :], mask[None, :], temperature
        )
        action = int(draw_actions(probabilities, [rng])[0])
        return PolicyDecision(
            action=action,
            log_prob=float(log_probs[0, action]),
            probabilities=probabilities[0],
        )

    def greedy(self, state: np.ndarray, mask: np.ndarray) -> int:
        """The highest-probability valid action (used at inference)."""
        return int(np.argmax(self.log_probs(state[None, :], mask[None, :])[0]))


class CriticNetwork:
    """Value network V(s) with a single linear output."""

    def __init__(
        self,
        state_dim: int,
        rng: Optional[np.random.Generator] = None,
        net: Optional[MLP] = None,
    ) -> None:
        """Glorot weights drawn from ``rng``, or ``net`` as it is."""
        self.state_dim = state_dim
        self.net = net if net is not None else MLP([state_dim, *HIDDEN, 1], rng)

    def value(self, states: np.ndarray) -> np.ndarray:
        """V(s) for a batch of states, shape ``(batch,)``."""
        return self.net.predict(states)[:, 0]


def draw_actions(
    probabilities: np.ndarray, rngs: Sequence[np.random.Generator]
) -> np.ndarray:
    """One action per row of ``probabilities``, row ``i`` drawn from ``rngs[i]``.

    Consumes each generator exactly as ``rng.choice(n, p=row)`` does — one
    ``random()`` bisected to the right into the row's normalised cumulative
    sum — so a stack of actors samples what each would sample alone.
    """
    cdf = np.cumsum(probabilities, axis=1)
    cdf /= cdf[:, -1:]
    uniforms = np.asarray([rng.random() for rng in rngs])
    return np.count_nonzero(cdf <= uniforms[:, None], axis=1)
