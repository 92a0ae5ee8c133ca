"""Reward computation: incremental Eq. 1 coverage tracking.

Executing the workload on the candidate subset at every RL step would be
ruinously slow (the paper calls this out as challenge C2). Instead, the
pre-processing phase executes each query representative once on the full
database and records, for every result row, the *provenance requirement* —
the set of ``(table, base row id)`` tuples that must all be present in the
approximation set for that row to appear in ``q(S)``.

:class:`CoverageTracker` then maintains, incrementally as tuples enter and
leave the candidate set, how many result rows of each query are covered,
and evaluates the Eq. 1 score over any batch of queries in O(1) per query.

A :class:`QueryCoverage` keeps those requirements columnar — the sorted
table names and an ``int64`` row-id matrix, one column per table — so a
requirement row costs one ``int64`` per table rather than a tuple of
tuples.

The key → result-row incidence is an immutable **CSR structure**
(:class:`CoverageIndex`, shareable between trackers) built from those
matrices with numpy: a key's dense id is the position of its integer code
(row id and table slot) among the sorted distinct codes, and the incidence
lists are flattened into one contiguous ``int64`` array indexed by per-key
offsets. A tracker's per-row missing counts / per-query covered counts /
per-key refcounts live in flat numpy arrays. Batch :meth:`add_keys` /
:meth:`remove_keys` updates are vectorized (one ``searchsorted`` interns
the batch, ``np.add.at`` scatters into the missing counts), an episode
:meth:`reset` is an array copy, and :meth:`score_with_keys` restores the
prior state from an array snapshot instead of replaying refcounts one key
at a time. The dict-of-lists tracker it replaced lives in
``tests/test_kernels.py``, the reference of the differential tests and
the baseline of ``benchmarks/bench_kernels.py``.

Granularity note: the tracker counts *distinct provenance rows* (one per
combination of contributing base tuples). Executed scoring
(:func:`repro.core.metric.score`) counts distinct *projected* result
tuples; projections can collapse several provenance rows into one
projected tuple, shrinking both the numerator and the ``min(F, |q(T)|)``
denominator. The two therefore coincide exactly for SELECT-* queries and
remain a close, monotone training proxy otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterable, NamedTuple, Optional, Sequence, Union

import numpy as np

from ..db.kernels import sorted_unique, stable_argsort
from .action_space import ActionSpace
from .approximation import ApproximationSet, TupleKey


@dataclass(eq=False)
class QueryCoverage:
    """Provenance requirements of one query representative.

    Parameters
    ----------
    name:
        Query label (for diagnostics).
    weight:
        The workload weight ``w(q)``.
    denominator:
        ``min(F, |q(T)|)`` from Eq. 1 (``|q(T)|`` on the *full* database).
    tables:
        The sorted names of the tables the query's result spans.
    ids:
        ``int64`` matrix of base row ids, one row per distinct result row
        and one column per table: the row survives only if every
        ``(tables[j], ids[r, j])`` is in the approximation set.
    sampled:
        Whether ``ids`` is a sample of the query's distinct result rows
        rather than all of them.
    """

    name: str
    weight: float
    denominator: int
    tables: tuple[str, ...] = ()
    ids: np.ndarray = field(default_factory=lambda: np.zeros((0, 0), dtype=np.int64))
    sampled: bool = False

    def __post_init__(self) -> None:
        self.tables = tuple(self.tables)
        self.ids = np.asarray(self.ids, dtype=np.int64)
        if self.ids.ndim != 2 or self.ids.shape[1] != len(self.tables):
            raise ValueError(
                f"row-id matrix of shape {self.ids.shape} for tables {self.tables}"
            )

    @property
    def requirements(self) -> np.ndarray:
        """The requirement rows: ``ids``, one row per distinct result row."""
        return self.ids

    @property
    def is_empty(self) -> bool:
        return self.denominator <= 0


class InternedKeys(NamedTuple):
    """A key batch as a :class:`CoverageIndex` sees it: the distinct dense
    ids of its known keys and each one's multiplicity."""

    ids: np.ndarray
    counts: np.ndarray


class CoverageIndex:
    """Immutable CSR key → result-row incidence of a coverage list, shared
    by every tracker over the same requirement rows (weights and
    denominators are tracker state):

    * key ``(table, row_id)`` has code ``row_id * slots + slot``, where
      ``slot`` is the table's position among the coverages' sorted table
      names and ``slots - 1`` stands for every other table (so a key is
      known iff its code is in ``codes``); its dense id is that code's
      position in the sorted distinct ``codes`` of the requirement rows.
      Only this class reads the format: :meth:`row_codes` gives a
      coverage's rows as codes and :meth:`approximation` turns codes back
      into keys;
    * ``inc_rows[inc_offsets[k]:inc_offsets[k + 1]]`` lists the global
      result-row ids requiring key ``k`` (rows are numbered contiguously
      across queries; ``row_query`` maps a row back to its query);
    * ``initial_missing[row]`` counts the row's required keys (one per
      table its query spans) and ``initial_covered[q]`` the rows of query
      ``q`` requiring none.
    """

    def __init__(self, coverages: Sequence[QueryCoverage]) -> None:
        n_queries = len(coverages)
        self.row_counts = np.asarray([len(c.ids) for c in coverages], dtype=np.int64)
        self.row_query = np.repeat(np.arange(n_queries, dtype=np.int64), self.row_counts)
        row_offsets = np.concatenate([[0], np.cumsum(self.row_counts)])

        self._tables = sorted({table for c in coverages for table in c.tables})
        self._slot = {table: t for t, table in enumerate(self._tables)}
        self.slots = len(self._tables) + 1
        # One entry per (row, table): the key's code and the global row id.
        entry_codes = [np.zeros(0, dtype=np.int64)]
        entry_rows = [np.zeros(0, dtype=np.int64)]
        for q, coverage in enumerate(coverages):
            rows = np.arange(row_offsets[q], row_offsets[q + 1], dtype=np.int64)
            for j, table in enumerate(coverage.tables):
                entry_codes.append(coverage.ids[:, j] * self.slots + self._slot[table])
                entry_rows.append(rows)
        self.codes, inc_keys = np.unique(
            np.concatenate(entry_codes), return_inverse=True
        )
        self.n_keys = n_keys = len(self.codes)
        order = stable_argsort(inc_keys, n_keys)
        self.inc_rows = np.concatenate(entry_rows)[order]
        self.inc_offsets = np.concatenate(
            [[0], np.cumsum(np.bincount(inc_keys, minlength=n_keys))]
        ).astype(np.int64)

        self.initial_missing = np.repeat(
            np.asarray([len(c.tables) for c in coverages], dtype=np.int64),
            self.row_counts,
        )
        # Rows with no requirements (shouldn't happen) start covered.
        self.initial_covered = np.bincount(
            self.row_query[self.initial_missing == 0], minlength=n_queries
        ).astype(np.int64)

    def row_codes(self, coverage: QueryCoverage) -> np.ndarray:
        """A coverage's row-id matrix with every key as its code: one row
        per requirement row, one column per table (the coverage's order)."""
        slot = np.asarray([self._slot[t] for t in coverage.tables], dtype=np.int64)
        return coverage.ids * self.slots + slot

    def approximation(self, codes: np.ndarray) -> ApproximationSet:
        """The approximation set of the keys with these codes."""
        return ApproximationSet.from_codes(self._tables, codes, self.slots)

    def row_key_ids(self, coverage: QueryCoverage) -> np.ndarray:
        """:meth:`row_codes` as dense key ids (the coverage is one this
        index was built from, so every code is known)."""
        return self.codes.searchsorted(self.row_codes(coverage))

    def intern(self, keys: Sequence[TupleKey]) -> InternedKeys:
        """Distinct interned key ids of a batch with their multiplicities.

        Unknown keys are dropped. The batch becomes codes in C-level passes
        (no Python frame per key) and one ``searchsorted`` finds them all;
        a batch without repeats (an action's keys, an approximation set)
        skips ``np.unique``, whose fixed cost is most of a small batch's.
        """
        if not keys or not self.n_keys:
            none = np.zeros(0, dtype=np.int64)
            return InternedKeys(none, none)
        names, row_ids = zip(*keys)
        codes = np.fromiter(row_ids, dtype=np.int64, count=len(keys))
        codes *= self.slots
        codes += np.fromiter(
            map(self._slot.get, names, repeat(self.slots - 1)),
            dtype=np.int64,
            count=len(keys),
        )
        codes.sort()
        pos = self.codes.searchsorted(codes)
        np.minimum(pos, self.n_keys - 1, out=pos)
        ids = pos[self.codes[pos] == codes]
        if (ids[1:] != ids[:-1]).all():
            return InternedKeys(ids, np.ones(len(ids), dtype=np.int64))
        return InternedKeys(*np.unique(ids, return_counts=True))

    def intern_actions(self, space: ActionSpace) -> tuple[InternedKeys, list[int]]:
        """:meth:`intern` of every action of ``space`` in one pass: action
        ``a``'s ids and counts are entries ``offsets[a]:offsets[a + 1]`` of
        the returned arrays."""
        # The space's distinct keys as this index's codes, in row order: the
        # searchsorted's needles come (nearly) sorted, which makes it cheap.
        tables = len(space.tables)
        slots = [self._slot.get(t, self.slots - 1) for t in space.tables]
        codes = space.distinct_codes // tables * self.slots + np.asarray(slots)[
            space.distinct_codes % tables
        ]
        pos = self.codes.searchsorted(codes)
        known = (np.append(self.codes, -1)[pos] == codes)[space.key_ids]  # codes >= 0
        pos = pos[space.key_ids]
        actions = np.repeat(np.arange(len(space)), np.diff(space.offsets))
        n = max(self.n_keys, 1)
        pairs, counts = np.unique(actions[known] * n + pos[known], return_counts=True)
        offsets = np.cumsum(np.bincount(pairs // n, minlength=len(space)))
        return InternedKeys(pairs % n, counts), [0] + offsets.tolist()


def _eq1_terms(
    covered: np.ndarray, safe_denoms: np.ndarray, empty: np.ndarray
) -> np.ndarray:
    """Eq. 1 term per query: ``min(1, covered / denominator)``, and 1 for
    a query with an empty answer (``empty``; its ``safe_denoms`` entry is 1)."""
    return np.where(empty, 1.0, np.minimum(1.0, covered / safe_denoms))


class CoverageTracker:
    """Incremental covered-row counts for a set of query representatives.

    Owns only the mutable state over a :class:`CoverageIndex` (built here
    unless the caller shares one): ``_missing[row]`` counts the row's absent
    required keys, ``_covered[q]`` the rows of query ``q`` with nothing
    missing, ``_present[k]`` the refcount of key ``k`` (DRP removes tuples);
    plus the Eq. 1 weights and denominators of *its* ``coverages``.
    """

    def __init__(
        self,
        coverages: Sequence[QueryCoverage],
        index: Optional[CoverageIndex] = None,
    ) -> None:
        self.coverages = list(coverages)
        if index is None:
            index = CoverageIndex(self.coverages)
        elif [len(c.ids) for c in self.coverages] != index.row_counts.tolist():
            raise ValueError("coverage index was built for other coverages")
        self.index = index
        self._inc_rows = index.inc_rows
        self._inc_offsets = index.inc_offsets
        self._row_query = index.row_query
        self._missing = index.initial_missing.copy()
        self._covered = index.initial_covered.copy()
        self._present = np.zeros(index.n_keys, dtype=np.int64)

        self._weights = np.asarray([c.weight for c in self.coverages], dtype=np.float64)
        denoms = np.asarray([c.denominator for c in self.coverages], dtype=np.float64)
        self._empty = denoms <= 0
        self._safe_denoms = np.where(self._empty, 1.0, denoms)

    # -------------------------------------------------------------- #
    @property
    def n_queries(self) -> int:
        return len(self.coverages)

    def covered_counts(self) -> np.ndarray:
        return self._covered.copy()

    def reset(self) -> None:
        """Remove all present tuples (start of an episode)."""
        self._present[:] = 0
        self._missing[:] = self.index.initial_missing
        self._covered[:] = self.index.initial_covered

    # -------------------------------------------------------------- #
    def _incidence_rows(self, key_ids: np.ndarray) -> np.ndarray:
        """Concatenated incidence rows of a batch of key ids (CSR gather)."""
        starts = self._inc_offsets[key_ids]
        counts = self._inc_offsets[key_ids + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return np.zeros(0, dtype=np.int64)
        group_starts = np.cumsum(counts) - counts
        within = np.arange(total, dtype=np.int64) - np.repeat(group_starts, counts)
        return self._inc_rows[np.repeat(starts, counts) + within]

    def add_keys(self, keys: Union[Iterable[TupleKey], InternedKeys]) -> None:
        """Add a batch of keys — or one the index has already interned."""
        if not isinstance(keys, InternedKeys):
            keys = self.index.intern(keys if isinstance(keys, list) else list(keys))
        uniq, counts = keys
        if uniq.size == 0:
            return
        newly = uniq[self._present[uniq] == 0]
        self._present[uniq] += counts
        if newly.size == 0:
            return
        rows = self._incidence_rows(newly)
        if rows.size == 0:
            return
        # Several newly-present keys may hit the same row: subtract the
        # per-row hit counts, then find touched rows that reached zero
        # (all were > 0 before, since a row requiring an absent key has
        # missing >= 1). Large batches take the dense bincount path —
        # ufunc.at's per-element scatter is far slower than full-array ops
        # once the hit list is a sizeable fraction of the rows.
        if rows.size * 4 >= self._missing.size:
            row_hits = np.bincount(rows, minlength=self._missing.size)
            self._missing -= row_hits
            became_covered = np.flatnonzero((self._missing == 0) & (row_hits > 0))
        else:
            np.subtract.at(self._missing, rows, 1)
            touched = sorted_unique(rows)
            became_covered = touched[self._missing[touched] == 0]
        if became_covered.size:
            self._covered += np.bincount(
                self._row_query[became_covered], minlength=self.n_queries
            )

    def remove_keys(self, keys: Union[Iterable[TupleKey], InternedKeys]) -> None:
        if not isinstance(keys, InternedKeys):
            keys = self.index.intern(keys if isinstance(keys, list) else list(keys))
        uniq, counts = keys
        if uniq.size == 0:
            return
        present = self._present[uniq]
        vanishing = uniq[(present > 0) & (counts >= present)]
        self._present[uniq] = np.maximum(present - counts, 0)
        if vanishing.size == 0:
            return
        rows = self._incidence_rows(vanishing)
        if rows.size == 0:
            return
        if rows.size * 4 >= self._missing.size:
            row_hits = np.bincount(rows, minlength=self._missing.size)
            was_covered = np.flatnonzero((self._missing == 0) & (row_hits > 0))
            self._missing += row_hits
        else:
            touched = sorted_unique(rows)
            was_covered = touched[self._missing[touched] == 0]
            np.add.at(self._missing, rows, 1)
        if was_covered.size:
            self._covered -= np.bincount(
                self._row_query[was_covered], minlength=self.n_queries
            )

    # -------------------------------------------------------------- #
    def query_score(self, q: int) -> float:
        """Eq. 1 term of one query under the current set."""
        coverage = self.coverages[q]
        if coverage.is_empty:
            return 1.0
        return min(1.0, float(self._covered[q]) / coverage.denominator)

    def batch_score(self, query_indices: Optional[Sequence[int]] = None) -> float:
        """Weighted Eq. 1 score over a batch (default: all queries).

        Weights are renormalized within the batch so a batch reward is on
        the same [0, 1] scale as the full score.
        """
        idx = slice(None)
        if query_indices is not None:
            idx = np.asarray(query_indices, dtype=np.int64)
        scores = _eq1_terms(
            self._covered[idx], self._safe_denoms[idx], self._empty[idx]
        )
        weights = self._weights[idx]
        weight_sum = float(weights.sum())
        return float(weights @ scores) / weight_sum if weight_sum > 0 else 0.0

    def covered_gains(self, increments: np.ndarray) -> np.ndarray:
        """What each row of per-query covered-count increments (one column
        per query) would add to :meth:`batch_score`; equal rows gain equally."""
        capped = np.minimum(self._covered + increments, self._safe_denoms)
        capped -= np.minimum(self._covered, self._safe_denoms)
        per_row = np.where(self._empty, 0.0, self._weights / self._safe_denoms)
        weight_sum = float(self._weights.sum())
        return (capped * per_row).sum(axis=1) / (weight_sum if weight_sum > 0 else np.inf)

    def probe_add_score(self, keys: Iterable[TupleKey]) -> float:
        """Score after hypothetically adding ``keys``; state is unchanged
        (add, score and roll back: no snapshot copy)."""
        keys = list(keys)
        self.add_keys(keys)
        value = self.batch_score()
        self.remove_keys(keys)
        return value

    def score_with_keys(self, keys: Iterable[TupleKey]) -> float:
        """Score of an arbitrary key set without disturbing current state.

        Used to score whole candidate sets (the trainer's candidate
        rollouts). The prior state is restored from an O(1)-ops
        array snapshot rather than replaying every refcount.
        """
        snapshot = (self._present.copy(), self._missing.copy(), self._covered.copy())
        self.reset()
        self.add_keys(keys)
        value = self.batch_score()
        self._present, self._missing, self._covered = snapshot
        return value


def held_query_scores(
    coverages: Sequence[QueryCoverage], approximation_set: ApproximationSet
) -> np.ndarray:
    """:meth:`CoverageTracker.query_score` of every query, for a tracker
    holding ``approximation_set``, without building a :class:`CoverageIndex`.

    Each coverage counts its requirement rows whose keys the set all holds:
    one boolean presence array per table, gathered by the ``ids`` columns.
    """
    sizes: dict[str, int] = {}
    for coverage in coverages:
        for table, column in zip(coverage.tables, coverage.ids.T):
            sizes[table] = max(sizes.get(table, 0), int(column.max(initial=-1)) + 1)
    held = {table: np.zeros(size, dtype=bool) for table, size in sizes.items()}
    for table, ids in approximation_set.rows.items():
        if table in held:
            ids = np.fromiter(ids, dtype=np.int64, count=len(ids))
            held[table][ids[ids < len(held[table])]] = True
    covered = np.zeros(len(coverages), dtype=np.int64)
    for q, coverage in enumerate(coverages):
        if len(coverage.ids):
            rows = np.ones(len(coverage.ids), dtype=bool)
            for table, column in zip(coverage.tables, coverage.ids.T):
                rows &= held[table][column]
            covered[q] = np.count_nonzero(rows)
    denoms = np.asarray([c.denominator for c in coverages], dtype=np.float64)
    return _eq1_terms(covered, np.where(denoms <= 0, 1.0, denoms), denoms <= 0)
