"""The RL environment over the tabular action space (paper §5.2).

One class runs the three variants of the Fig. 3 ablation, chosen by
``config.environment``:

* **GSL** (gradual-set-learning, ``"gsl"``) — the production choice.
  Episodes start from the empty set; each action adds a group of joinable
  tuples; the reward is the Eq. 1 score of the new state on the episode's
  query batch; the episode ends when the memory budget ``k`` is reached.
* **DRP** (drop-one, ``"drp"``) — starts from a random set of ``k``
  tuples; each step swaps one selected group out (uniformly at random —
  the instability the paper reports) and the policy-chosen group in;
  reward is the score *delta*; the episode runs to a fixed horizon.
* **DRP+GSL** (``"drp+gsl"``) — grows the set GSL-style to the budget,
  then refines with DRP swaps for half the horizon.

The selection is one state: the multi-hot ``selected`` vector over the
action space (the policy's state, with action masking forbidding a
re-selection, paper §4.3) plus a refcount per key id of the space, because
groups share tuples and a swap must keep a tuple another selected group
still holds. The set's size and :meth:`approximation_set` read the refcount.

Growth stops once the set holds ``k`` tuples, so the last group added may
overshoot ``k`` by up to one group. Alg. 2 trims that overshoot at
inference (:func:`repro.core.inference.generate_approximation_set`);
training keeps it, because trimming inside an episode would change the
last reward of every GSL episode and with it the trained policy and its
score.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional, Sequence

import numpy as np

from ..rl.parallel import Environment
from .action_space import ActionSpace
from .approximation import ApproximationSet
from .config import ASQPConfig
from .reward import CoverageIndex, CoverageTracker, InternedKeys, QueryCoverage


class GSLEnvironment(Environment):
    """GSL, DRP or DRP+GSL (named for the default) over one selection.

    With ``gsl_delta_rewards`` (the default) GSL emits the telescoped
    reward ``Score(S_{t+1}) − Score(S_t)`` rather than the paper's
    ``Score(S_{t+1})``: the episode return is identical, so the optimal
    policy is unchanged, but each step's reward is the action's own
    marginal contribution — better-conditioned credit assignment for the
    small numpy networks this reproduction trains. DRP+GSL's growth phase
    rewards the absolute score and its swap phase the delta.

    ``coverage_index`` lets several environments over the same
    requirement rows share one immutable incidence structure.
    """

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
        # The whole space in the tracker's index, looked up once; an action's
        # slices are cut the first time this environment takes it.
        self._index_keys, self._index_offsets = self.tracker.index.intern_actions(
            action_space
        )
        self._offsets = action_space.offsets.tolist()
        self._taken: list[Optional[tuple[list[int], InternedKeys]]]
        self._taken = [None] * len(action_space)
        self._refs: Counter[int] = Counter()
        self.batch: list[int] = []

    @property
    def n_actions(self) -> int:
        return len(self.action_space)

    @property
    def size(self) -> int:
        """Distinct tuples held by the selected groups."""
        return len(self._refs)

    @property
    def budget_reached(self) -> bool:
        return self.size >= self.config.memory_budget

    def approximation_set(self) -> ApproximationSet:
        return self.action_space.approximation(
            np.fromiter(self._refs, dtype=np.int64, count=len(self._refs))
        )

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

    def _keys(self, action: int) -> tuple[list[int], InternedKeys]:
        """An action's key ids in the space, and as the tracker's index has them."""
        keys = self._taken[action]
        if keys is None:
            first, last = self._offsets[action], self._offsets[action + 1]
            lo, hi = self._index_offsets[action], self._index_offsets[action + 1]
            ids, counts = self._index_keys
            keys = self._taken[action] = (
                self.action_space.key_ids[first:last].tolist(),
                InternedKeys(ids[lo:hi], counts[lo:hi]),
            )
        return keys

    def _add(self, action: int) -> None:
        # One batch tracker update per action group (CSR scatter), not one
        # incidence walk per key.
        self.selected[action] = True
        key_ids, index_keys = self._keys(action)
        self._refs.update(key_ids)
        self.tracker.add_keys(index_keys)

    def _evict_random(self) -> None:
        selected_indices = np.flatnonzero(self.selected)
        if len(selected_indices) == 0:
            return
        victim = int(self.rng.choice(selected_indices))
        self.selected[victim] = False
        key_ids, index_keys = self._keys(victim)
        for key in key_ids:
            if self._refs[key] > 1:
                self._refs[key] -= 1
            else:
                del self._refs[key]
        self.tracker.remove_keys(index_keys)

    def reset(self) -> tuple[np.ndarray, np.ndarray]:
        self.selected[:] = False
        self._refs.clear()
        self.tracker.reset()
        self.batch = self._sample_batch()
        self._swaps = 0
        variant = self.config.environment
        if variant == "drp":
            # Random initialization to the budget (the paper notes this
            # phase is "crucial and unstable" — we reproduce the plain one).
            for action in self.rng.permutation(self.n_actions):
                if self.budget_reached:
                    break
                self._add(int(action))
        self._last_score = (
            0.0 if variant == "drp+gsl" else self.tracker.batch_score(self.batch)
        )
        return self._state(), self._mask()

    def step(self, action: int) -> tuple[np.ndarray, float, bool, np.ndarray]:
        if self.selected[action]:
            raise ValueError(f"action {action} already selected (mask violation)")
        variant = self.config.environment
        swap = variant == "drp" or (variant == "drp+gsl" and self.budget_reached)
        if swap:
            self._evict_random()
            self._swaps += 1
        self._add(action)
        new_score = self.tracker.batch_score(self.batch)
        delta = swap or (variant == "gsl" and self.config.gsl_delta_rewards)
        reward = new_score - self._last_score if delta else new_score
        self._last_score = new_score
        mask = self._mask()
        if variant == "gsl":
            done = self.budget_reached
        else:
            horizon = self.config.drp_horizon
            if variant == "drp+gsl":
                horizon = max(1, horizon // 2)
            done = self._swaps >= horizon
        return self._state(), reward, done or not mask.any(), mask
