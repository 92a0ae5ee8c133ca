"""The RL action space: groups of joinable tuples.

Paper §4.2/§4.3: an action "encompasses multiple tuples sourced from
different tables". Selecting tuples independently per table risks
unjoinable picks, so actions are built from *result rows* of the executed
(relaxed) query representatives — each action bundles the provenance
tuples of a few result rows of one query, which are joinable by
construction. An action is its keys: the policy's state is the selection
bitmap over action indices, so no vector is stored per action.

The space is held as model format 5 stores it (:mod:`repro.core.persistence`):
row-id arrays, not ``(table, row id)`` tuples. Tuples are built only where
a caller asks for an :class:`~repro.core.approximation.ApproximationSet`.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .approximation import ApproximationSet

#: Rows of one source query: their tables, (non-negative) row-id matrix and
#: source code.
RowBlock = tuple[Sequence[str], np.ndarray, int]


class ActionSpace:
    """An indexed list of actions, in the order they were built.

    * ``tables`` — table names; key ``i`` is ``(tables[key_tables[i]],
      key_rows[i])``;
    * ``offsets`` — action ``a`` holds keys ``offsets[a]:offsets[a + 1]``,
      in the order they were grouped, and came from source query code
      ``sources[a]``;
    * ``key_ids`` — each key's dense id among the space's distinct keys, so
      a key repeated across or within actions has one id: key ``i`` has code
      ``distinct_codes[key_ids[i]]``, ``row id * len(tables) + table code``.

    Supports extension at fine-tuning time (paper §4.4: drift fine-tuning
    introduces tuples relevant to the new queries).
    """

    def __init__(
        self,
        tables: Sequence[str],
        key_tables: np.ndarray,
        key_rows: np.ndarray,
        offsets: np.ndarray,
        sources: np.ndarray,
    ) -> None:
        self.tables = tuple(tables)
        self.key_tables, self.key_rows, self.offsets, self.sources = (
            np.asarray(array, dtype=np.int64)
            for array in (key_tables, key_rows, offsets, sources)
        )
        n_tables = len(self.tables)
        if (
            not len(self.sources) or len(self.key_tables) != len(self.key_rows)
            or len(self.offsets) != len(self.sources) + 1
            or self.offsets[0] != 0 or self.offsets[-1] != len(self.key_rows)
            or np.any(np.diff(self.offsets) <= 0)
            or not 0 <= self.key_tables.min() <= self.key_tables.max() < n_tables
        ):
            raise ValueError(
                "action arrays of inconsistent lengths: an action space holds "
                f"actions of at least one key, and table codes in [0, {n_tables})"
            )
        self.distinct_codes, self.key_ids = np.unique(
            self.key_rows * n_tables + self.key_tables, return_inverse=True
        )

    # -------------------------------------------------------------- #
    def __len__(self) -> int:
        return len(self.sources)

    def total_distinct_tuples(self) -> int:
        return len(self.distinct_codes)

    def approximation(self, key_ids: np.ndarray) -> ApproximationSet:
        """The approximation set of the distinct keys with these ids."""
        return ApproximationSet.from_codes(
            self.tables, self.distinct_codes[key_ids], len(self.tables)
        )

    def table_codes(self, names: Sequence[str]) -> np.ndarray:
        """Each key's table as a code into ``names``: sorted, holding all."""
        return np.searchsorted(names, self.tables).astype(np.int64)[self.key_tables]

    # -------------------------------------------------------------- #
    def extend(self, other: "ActionSpace") -> "ActionSpace":
        """A new, larger action space (used by drift fine-tuning)."""
        tables = sorted(set(self.tables).union(other.tables))
        return ActionSpace(
            tables,
            np.concatenate([self.table_codes(tables), other.table_codes(tables)]),
            np.concatenate([self.key_rows, other.key_rows]),
            np.concatenate([self.offsets, other.offsets[1:] + self.offsets[-1]]),
            np.concatenate([self.sources, other.sources]),
        )


def group_rows_into_actions(
    blocks: Sequence[RowBlock], group_size: int, rng: np.random.Generator
) -> Optional[ActionSpace]:
    """Bundle result rows into actions of ~``group_size`` rows each.

    Rows are grouped within their source query (keeping each action
    joinable/coherent) after a shuffle, so groups are not biased by result
    order: sources ascending, each one's rows (in block order) permuted by
    one ``rng.permutation`` and cut into consecutive chunks. Duplicate
    tuple keys within a group collapse to their first occurrence. Each
    block spans at least one table; ``None`` when the blocks hold no row.
    """
    if group_size < 1:
        raise ValueError(f"group size must be >= 1, got {group_size}")
    blocks = [block for block in blocks if len(block[1])]
    if not blocks:
        return None
    tables = sorted({table for names, _, _ in blocks for table in names})
    # Each row's keys as codes ``row id * len(tables) + table``, -1 padded.
    width = max(len(names) for names, _, _ in blocks)
    codes = np.concatenate([
        np.pad(ids * len(tables) + np.searchsorted(tables, names),
               ((0, 0), (0, width - len(names))), constant_values=-1)
        for names, ids, _ in blocks
    ])
    sources = np.concatenate([np.full(len(ids), q) for _, ids, q in blocks])
    by_source = np.argsort(sources, kind="stable")
    runs = np.split(by_source, np.flatnonzero(np.diff(sources[by_source])) + 1)
    order = np.concatenate([run[rng.permutation(len(run))] for run in runs])
    chunks = np.concatenate([np.arange(len(run)) // group_size for run in runs])
    groups, actions = np.unique(
        np.c_[sources[order], chunks], axis=0, return_inverse=True
    )
    keys = codes[order]
    actions = np.repeat(actions.reshape(-1), (keys >= 0).sum(axis=1))
    keys = keys[keys >= 0]
    first = np.unique(actions * (keys.max() + 1) + keys, return_index=True)[1]
    keys, actions = keys[np.sort(first)], actions[np.sort(first)]
    return ActionSpace(
        tables, keys % len(tables), keys // len(tables),
        np.r_[0, np.cumsum(np.bincount(actions))], groups[:, 0],
    )
