"""RL environments over the tabular action space (paper §5.2).

Three environments, matching the Fig. 3 ablation:

* **GSL** (gradual-set-learning) — the production choice. Episodes start
  from the empty set; each action adds a group of joinable tuples; the
  reward is the Eq. 1 score of the new state on the episode's query batch;
  the episode ends when the memory budget ``k`` is reached.
* **DRP** (drop-one) — starts from a full random set of ``k`` tuples; each
  step swaps one selected group out (uniformly at random — the instability
  the paper reports) and the policy-chosen group in; reward is the score
  *delta*; the episode runs to a fixed horizon.
* **DRP+GSL** — grows the set GSL-style to the budget, then refines with
  DRP swaps for half the horizon.

All environments expose the same multi-hot state over the action space and
use action masking to forbid re-selecting a group (paper §4.3).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..rl.parallel import Environment
from .action_space import ActionSpace
from .approximation import ApproximationSet
from .config import ASQPConfig
from .reward import CoverageIndex, CoverageTracker, QueryCoverage


class _BaseTabularEnv(Environment):
    """Shared machinery: selection state, masking, budgeted growth."""

    def __init__(
        self,
        action_space: ActionSpace,
        coverages: Sequence[QueryCoverage],
        config: ASQPConfig,
        rng: np.random.Generator,
        query_batch: Optional[Sequence[int]] = None,
        coverage_index: Optional[CoverageIndex] = None,
    ) -> None:
        self.action_space = action_space
        self.config = config
        self.rng = rng
        self.tracker = CoverageTracker(coverages, coverage_index)
        self._fixed_batch = list(query_batch) if query_batch is not None else None
        self._weights = np.asarray(
            [max(c.weight, 1e-12) for c in coverages], dtype=np.float64
        )
        self._weights /= self._weights.sum()
        self.selected = np.zeros(len(action_space), dtype=bool)
        self.approx = ApproximationSet()
        self.batch: list[int] = []

    # ------------------------------------------------------------ #
    @property
    def n_actions(self) -> int:
        return len(self.action_space)

    def _state(self) -> np.ndarray:
        return self.selected.copy()

    def _mask(self) -> np.ndarray:
        return ~self.selected

    def _sample_batch(self) -> list[int]:
        if self._fixed_batch is not None:
            return list(self._fixed_batch)
        n = len(self._weights)
        size = min(self.config.query_batch_size, n)
        picks = self.rng.choice(n, size=size, replace=False, p=self._weights)
        return [int(p) for p in picks]

    def _apply_add(self, action: int) -> None:
        # One batch tracker update per action group (CSR scatter), not one
        # incidence walk per key.
        self.selected[action] = True
        keys = self.action_space.keys_of(action)
        self.approx.add_keys(keys)
        self.tracker.add_keys(self.tracker.index.interned(keys))

    def _apply_remove(self, action: int) -> None:
        self.selected[action] = False
        keys = self.action_space.keys_of(action)
        self.approx.remove_keys(keys)
        self.tracker.remove_keys(self.tracker.index.interned(keys))

    def _reset_selection(self) -> None:
        self.selected[:] = False
        self.approx = ApproximationSet()
        self.tracker.reset()

    @property
    def budget_reached(self) -> bool:
        return self.approx.total_size() >= self.config.memory_budget

    def approximation_set(self) -> ApproximationSet:
        return self.approx.copy()

    def current_score(self) -> float:
        """Full-batch Eq. 1 score of the current state."""
        return self.tracker.batch_score()


class GSLEnvironment(_BaseTabularEnv):
    """Gradual-set-learning: grow from empty to the budget.

    The paper defines the GSL reward as ``Score(S_{t+1})`` on the episode's
    query batch. With ``gsl_delta_rewards`` (the default) the environment
    emits the telescoped form ``Score(S_{t+1}) − Score(S_t)`` instead: the
    episode return is identical (the sum telescopes to the final score), so
    the optimal policy is unchanged, but each step's reward is the action's
    own marginal contribution — much better-conditioned credit assignment
    for the small numpy networks this reproduction trains.
    """

    def reset(self) -> tuple[np.ndarray, np.ndarray]:
        self._reset_selection()
        self.batch = self._sample_batch()
        self._last_score = self.tracker.batch_score(self.batch)
        return self._state(), self._mask()

    def step(self, action: int) -> tuple[np.ndarray, float, bool, np.ndarray]:
        if self.selected[action]:
            raise ValueError(f"action {action} already selected (mask violation)")
        self._apply_add(action)
        new_score = self.tracker.batch_score(self.batch)
        if self.config.gsl_delta_rewards:
            reward = new_score - self._last_score
        else:
            reward = new_score
        self._last_score = new_score
        mask = self._mask()
        done = self.budget_reached or not mask.any()
        return self._state(), reward, done, mask


class DropOneEnvironment(_BaseTabularEnv):
    """Drop-one: fixed-size set, swap-based refinement, delta rewards."""

    def reset(self) -> tuple[np.ndarray, np.ndarray]:
        self._reset_selection()
        self.batch = self._sample_batch()
        self._steps = 0
        # Random initialization to the budget (the paper notes this phase
        # is "crucial and unstable" — we reproduce the plain variant).
        order = self.rng.permutation(self.n_actions)
        for action in order:
            if self.budget_reached:
                break
            self._apply_add(int(action))
        self._last_score = self.tracker.batch_score(self.batch)
        return self._state(), self._mask()

    def step(self, action: int) -> tuple[np.ndarray, float, bool, np.ndarray]:
        if self.selected[action]:
            raise ValueError(f"action {action} already selected (mask violation)")
        selected_indices = np.flatnonzero(self.selected)
        if len(selected_indices) > 0:
            victim = int(self.rng.choice(selected_indices))
            self._apply_remove(victim)
        self._apply_add(action)
        new_score = self.tracker.batch_score(self.batch)
        reward = new_score - self._last_score
        self._last_score = new_score
        self._steps += 1
        mask = self._mask()
        done = self._steps >= self.config.drp_horizon or not mask.any()
        return self._state(), reward, done, mask


class HybridEnvironment(_BaseTabularEnv):
    """DRP+GSL: GSL growth phase followed by DRP refinement."""

    def reset(self) -> tuple[np.ndarray, np.ndarray]:
        self._reset_selection()
        self.batch = self._sample_batch()
        self._swap_steps = 0
        self._last_score = 0.0
        return self._state(), self._mask()

    def step(self, action: int) -> tuple[np.ndarray, float, bool, np.ndarray]:
        if self.selected[action]:
            raise ValueError(f"action {action} already selected (mask violation)")
        growing = not self.budget_reached
        if growing:
            self._apply_add(action)
            reward = self.tracker.batch_score(self.batch)
            self._last_score = reward
        else:
            selected_indices = np.flatnonzero(self.selected)
            if len(selected_indices) > 0:
                victim = int(self.rng.choice(selected_indices))
                self._apply_remove(victim)
            self._apply_add(action)
            new_score = self.tracker.batch_score(self.batch)
            reward = new_score - self._last_score
            self._last_score = new_score
            self._swap_steps += 1
        mask = self._mask()
        done = (
            self._swap_steps >= max(1, self.config.drp_horizon // 2)
            or not mask.any()
        )
        return self._state(), reward, done, mask


_ENVIRONMENTS = {
    "gsl": GSLEnvironment,
    "drp": DropOneEnvironment,
    "drp+gsl": HybridEnvironment,
}


def make_environment(
    name: str,
    action_space: ActionSpace,
    coverages: Sequence[QueryCoverage],
    config: ASQPConfig,
    rng: np.random.Generator,
    query_batch: Optional[Sequence[int]] = None,
    coverage_index: Optional[CoverageIndex] = None,
):
    """Factory by ablation name ("gsl", "drp", "drp+gsl").

    ``coverage_index`` lets several environments over the same requirement
    rows share one immutable incidence structure.
    """
    try:
        cls = _ENVIRONMENTS[name]
    except KeyError:
        raise ValueError(
            f"unknown environment {name!r}; choose from {sorted(_ENVIRONMENTS)}"
        ) from None
    return cls(
        action_space, coverages, config, rng,
        query_batch=query_batch, coverage_index=coverage_index,
    )
