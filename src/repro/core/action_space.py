"""The RL action space: groups of joinable tuples.

Paper §4.2/§4.3: an action "encompasses multiple tuples sourced from
different tables". Selecting tuples independently per table risks
unjoinable picks, so actions are built from *result rows* of the executed
(relaxed) query representatives — each action bundles the provenance
tuples of a few result rows of one query, which are joinable by
construction. An action is its keys: the policy's state is the selection
bitmap over action indices, so no vector is stored per action.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .approximation import TupleKey


@dataclass(frozen=True)
class Action:
    """One selectable action: a set of base tuples plus its origin query."""

    keys: tuple[TupleKey, ...]
    source_query: int = -1

    def __len__(self) -> int:
        return len(self.keys)


class ActionSpace:
    """An indexed list of actions, in the order they were built.

    Supports extension at fine-tuning time (paper §4.4: drift fine-tuning
    introduces tuples relevant to the new queries).
    """

    def __init__(self, actions: Sequence[Action]) -> None:
        if not actions:
            raise ValueError("action space must contain at least one action")
        self._actions = list(actions)

    # -------------------------------------------------------------- #
    def __len__(self) -> int:
        return len(self._actions)

    def __getitem__(self, index: int) -> Action:
        return self._actions[index]

    def __iter__(self):
        return iter(self._actions)

    def keys_of(self, index: int) -> tuple[TupleKey, ...]:
        return self._actions[index].keys

    def mean_action_size(self) -> float:
        return float(np.mean([len(a) for a in self._actions]))

    def total_distinct_tuples(self) -> int:
        return len({key for action in self._actions for key in action.keys})

    # -------------------------------------------------------------- #
    def extend(self, actions: Sequence[Action]) -> "ActionSpace":
        """A new, larger action space (used by drift fine-tuning)."""
        return ActionSpace(self._actions + list(actions))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ActionSpace(n={len(self)}, mean_size={self.mean_action_size():.1f}, "
            f"distinct_tuples={self.total_distinct_tuples()})"
        )


def group_rows_into_actions(
    row_requirements: Sequence[tuple[TupleKey, ...]],
    source_queries: Sequence[int],
    group_size: int,
    rng: np.random.Generator,
) -> list[Action]:
    """Bundle result rows into actions of ~``group_size`` rows each.

    Rows are grouped within their source query (keeping each action
    joinable/coherent) after a shuffle, so groups are not biased by result
    order. Duplicate tuple keys within a group collapse to their first
    occurrence.
    """
    if group_size < 1:
        raise ValueError(f"group size must be >= 1, got {group_size}")
    by_query: dict[int, list[int]] = {}
    for i, q in enumerate(source_queries):
        by_query.setdefault(q, []).append(i)

    actions: list[Action] = []
    for q in sorted(by_query):
        indices = by_query[q]
        order = rng.permutation(len(indices))
        for start in range(0, len(indices), group_size):
            chunk = [indices[j] for j in order[start : start + group_size]]
            keys = dict.fromkeys(key for i in chunk for key in row_requirements[i])
            if keys:
                actions.append(Action(keys=tuple(keys), source_query=q))
    return actions
