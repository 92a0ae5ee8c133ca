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

The key → result-row incidence is an immutable **CSR structure**
(:class:`CoverageIndex`, shareable between trackers): all distinct keys are
interned to dense ids and the incidence lists are flattened into one
contiguous ``int64`` array indexed by per-key offsets. A tracker's per-row
missing counts / per-query covered counts / per-key refcounts live in flat
numpy arrays. Batch :meth:`add_keys` / :meth:`remove_keys` updates are
vectorized (``np.unique`` over the batch, ``np.add.at`` scatter into the
missing counts), an episode :meth:`reset` is an array copy, and
:meth:`score_with_keys` restores the prior state from an array snapshot
instead of replaying refcounts one key at a time. The pre-vectorization dict-of-lists implementation is retained
below as :class:`DictCoverageTracker` for differential testing and
benchmarking.

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

from ..db.kernels import stable_argsort
from .approximation import TupleKey

#: Batches up to this size take the scalar per-key path; the numpy batch
#: machinery only pays off once a few keys amortize its fixed cost.
_SCALAR_BATCH_LIMIT = 4


@dataclass
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
    requirements:
        One entry per distinct result row: the tuple keys that must all be
        in the approximation set for the row to survive.
    """

    name: str
    weight: float
    denominator: int
    requirements: list[tuple[TupleKey, ...]] = field(default_factory=list)

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
    by every tracker over the same ``requirements`` (weights and
    denominators are tracker state):

    * ``key_index`` interns every distinct tuple key to a dense id;
    * ``inc_rows[inc_offsets[k]:inc_offsets[k + 1]]`` lists the global
      result-row ids requiring key ``k`` (rows are numbered contiguously
      across queries; ``row_query`` maps a row back to its query);
    * ``initial_missing[row]`` counts the row's distinct required keys and
      ``initial_covered[q]`` the rows of query ``q`` requiring none.
    """

    def __init__(self, coverages: Sequence[QueryCoverage]) -> None:
        n_queries = len(coverages)
        self.row_counts = np.asarray(
            [len(c.requirements) for c in coverages], dtype=np.int64
        )
        self.row_query = np.repeat(np.arange(n_queries, dtype=np.int64), self.row_counts)
        row_offsets = np.concatenate([[0], np.cumsum(self.row_counts)])

        self.key_index: dict[TupleKey, int] = {}
        inc_keys: list[int] = []
        inc_rows: list[int] = []
        initial_missing = np.zeros(int(row_offsets[-1]), dtype=np.int64)
        for q, coverage in enumerate(coverages):
            base = int(row_offsets[q])
            for r, requirement in enumerate(coverage.requirements):
                distinct = set(requirement)
                initial_missing[base + r] = len(distinct)
                for key in distinct:
                    kid = self.key_index.setdefault(key, len(self.key_index))
                    inc_keys.append(kid)
                    inc_rows.append(base + r)

        n_keys = len(self.key_index)
        inc_key_arr = np.asarray(inc_keys, dtype=np.int64)
        inc_row_arr = np.asarray(inc_rows, dtype=np.int64)
        order = stable_argsort(inc_key_arr, n_keys)
        self.inc_rows = inc_row_arr[order]
        self.inc_offsets = np.concatenate(
            [[0], np.cumsum(np.bincount(inc_key_arr, minlength=n_keys))]
        ).astype(np.int64)

        self.initial_missing = initial_missing
        # Rows with no requirements (shouldn't happen) start covered.
        self.initial_covered = np.bincount(
            self.row_query[initial_missing == 0], minlength=n_queries
        ).astype(np.int64)
        self._interned: dict[tuple[TupleKey, ...], InternedKeys] = {}

    def intern(self, keys: Sequence[TupleKey]) -> InternedKeys:
        """Distinct interned key ids of a batch with their multiplicities.

        Unknown keys are dropped. The C-level ``map(dict.get, keys,
        repeat(-1))`` avoids a Python frame per key; everything after is
        sized by the batch, not the key universe.
        """
        ids = np.fromiter(
            map(self.key_index.get, keys, repeat(-1)),
            dtype=np.int64,
            count=len(keys),
        )
        uniq, counts = np.unique(ids, return_counts=True)
        if uniq.size and uniq[0] == -1:
            uniq, counts = uniq[1:], counts[1:]
        return InternedKeys(uniq, counts)

    def interned(self, keys: tuple[TupleKey, ...]) -> InternedKeys:
        """:meth:`intern` of an action's key tuple, done once for all the
        environments over this index (the memo is dropped with it)."""
        found = self._interned.get(keys)
        if found is None:
            found = self._interned[keys] = self.intern(keys)
        return found


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
        elif [len(c.requirements) for c in self.coverages] != index.row_counts.tolist():
            raise ValueError("coverage index was built for other coverages")
        self.index = index
        self._key_index = index.key_index
        self._inc_rows = index.inc_rows
        self._inc_offsets = index.inc_offsets
        self._row_query = index.row_query
        self._missing = index.initial_missing.copy()
        self._covered = index.initial_covered.copy()
        self._present = np.zeros(len(index.key_index), dtype=np.int64)

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
    def add_key(self, key: TupleKey) -> None:
        kid = self._key_index.get(key)
        if kid is None:
            return
        count = self._present[kid]
        self._present[kid] = count + 1
        if count > 0:
            return  # already present; no coverage change
        missing, covered, row_query = self._missing, self._covered, self._row_query
        for pos in range(self._inc_offsets[kid], self._inc_offsets[kid + 1]):
            row = self._inc_rows[pos]
            missing[row] -= 1
            if missing[row] == 0:
                covered[row_query[row]] += 1

    def remove_key(self, key: TupleKey) -> None:
        kid = self._key_index.get(key)
        if kid is None:
            return
        count = self._present[kid]
        if count == 0:
            return
        self._present[kid] = count - 1
        if count > 1:
            return
        missing, covered, row_query = self._missing, self._covered, self._row_query
        for pos in range(self._inc_offsets[kid], self._inc_offsets[kid + 1]):
            row = self._inc_rows[pos]
            if missing[row] == 0:
                covered[row_query[row]] -= 1
            missing[row] += 1

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
            keys = keys if isinstance(keys, list) else list(keys)
            if len(keys) <= _SCALAR_BATCH_LIMIT:
                for key in keys:
                    self.add_key(key)
                return
            keys = self.index.intern(keys)
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
            touched = np.unique(rows)
            became_covered = touched[self._missing[touched] == 0]
        if became_covered.size:
            self._covered += np.bincount(
                self._row_query[became_covered], minlength=self.n_queries
            )

    def remove_keys(self, keys: Union[Iterable[TupleKey], InternedKeys]) -> None:
        if not isinstance(keys, InternedKeys):
            keys = keys if isinstance(keys, list) else list(keys)
            if len(keys) <= _SCALAR_BATCH_LIMIT:
                for key in keys:
                    self.remove_key(key)
                return
            keys = self.index.intern(keys)
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
            touched = np.unique(rows)
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
        if query_indices is None:
            scores = np.where(
                self._empty, 1.0, np.minimum(1.0, self._covered / self._safe_denoms)
            )
            weight_sum = float(self._weights.sum())
            total = float(self._weights @ scores)
        else:
            idx = np.asarray(query_indices, dtype=np.int64)
            scores = np.where(
                self._empty[idx],
                1.0,
                np.minimum(1.0, self._covered[idx] / self._safe_denoms[idx]),
            )
            weight_sum = float(self._weights[idx].sum())
            total = float(self._weights[idx] @ scores)
        return total / weight_sum if weight_sum > 0 else 0.0

    def probe_add_score(self, keys: Iterable[TupleKey]) -> float:
        """Score after hypothetically adding ``keys``; state is unchanged.

        Used by the greedy baseline's marginal-gain scan: add, score, and
        roll back in one incidence-bounded round trip (no snapshot copy).
        """
        keys = list(keys)
        self.add_keys(keys)
        value = self.batch_score()
        self.remove_keys(keys)
        return value

    def score_with_keys(self, keys: Iterable[TupleKey]) -> float:
        """Score of an arbitrary key set without disturbing current state.

        Used by the greedy / brute-force baselines, which probe many
        candidate sets. The prior state is restored from an O(1)-ops
        array snapshot rather than replaying every refcount.
        """
        snapshot = (self._present.copy(), self._missing.copy(), self._covered.copy())
        self.reset()
        self.add_keys(keys)
        value = self.batch_score()
        self._present, self._missing, self._covered = snapshot
        return value


class DictCoverageTracker:
    """Pre-vectorization dict-of-lists tracker (reference implementation).

    Retained verbatim for the differential/property tests in
    ``tests/test_kernels.py`` and as the baseline side of
    ``benchmarks/bench_kernels.py``. Semantics are identical to
    :class:`CoverageTracker`; only the data layout differs.
    """

    def __init__(self, coverages: Sequence[QueryCoverage]) -> None:
        self.coverages = list(coverages)
        # missing[q][r]: how many distinct required keys of row r are absent.
        self._missing: list[np.ndarray] = []
        self._covered = np.zeros(len(coverages), dtype=np.int64)
        # key -> list of (query index, row index) it participates in.
        self._incidence: dict[TupleKey, list[tuple[int, int]]] = {}
        # Multiset of present keys (DRP removes tuples, so we refcount).
        self._present: dict[TupleKey, int] = {}

        for q, coverage in enumerate(self.coverages):
            missing = np.zeros(len(coverage.requirements), dtype=np.int64)
            for r, requirement in enumerate(coverage.requirements):
                distinct = set(requirement)
                missing[r] = len(distinct)
                for key in distinct:
                    self._incidence.setdefault(key, []).append((q, r))
            self._missing.append(missing)
            self._covered[q] = int(np.sum(missing == 0))

    @property
    def n_queries(self) -> int:
        return len(self.coverages)

    def covered_counts(self) -> np.ndarray:
        return self._covered.copy()

    def reset(self) -> None:
        self._present.clear()
        for q, coverage in enumerate(self.coverages):
            missing = self._missing[q]
            for r, requirement in enumerate(coverage.requirements):
                missing[r] = len(set(requirement))
            self._covered[q] = int(np.sum(missing == 0))

    def add_key(self, key: TupleKey) -> None:
        count = self._present.get(key, 0)
        self._present[key] = count + 1
        if count > 0:
            return
        for q, r in self._incidence.get(key, ()):
            missing = self._missing[q]
            missing[r] -= 1
            if missing[r] == 0:
                self._covered[q] += 1

    def remove_key(self, key: TupleKey) -> None:
        count = self._present.get(key, 0)
        if count == 0:
            return
        if count > 1:
            self._present[key] = count - 1
            return
        del self._present[key]
        for q, r in self._incidence.get(key, ()):
            missing = self._missing[q]
            if missing[r] == 0:
                self._covered[q] -= 1
            missing[r] += 1

    def add_keys(self, keys: Iterable[TupleKey]) -> None:
        for key in keys:
            self.add_key(key)

    def remove_keys(self, keys: Iterable[TupleKey]) -> None:
        for key in keys:
            self.remove_key(key)

    def query_score(self, q: int) -> float:
        coverage = self.coverages[q]
        if coverage.is_empty:
            return 1.0
        return min(1.0, float(self._covered[q]) / coverage.denominator)

    def batch_score(self, query_indices: Optional[Sequence[int]] = None) -> float:
        if query_indices is None:
            query_indices = range(self.n_queries)
        total = 0.0
        weight_sum = 0.0
        for q in query_indices:
            weight = self.coverages[q].weight
            total += weight * self.query_score(q)
            weight_sum += weight
        return total / weight_sum if weight_sum > 0 else 0.0

    def score_with_keys(self, keys: Iterable[TupleKey]) -> float:
        snapshot_present = dict(self._present)
        self.reset()
        self.add_keys(keys)
        value = self.batch_score()
        self.reset()
        for key, count in snapshot_present.items():
            for _ in range(count):
                self.add_key(key)
        return value
