"""Differential tests for the vectorized execution kernels and CSR tracker.

Every kernel in ``repro.db.kernels`` must reproduce the per-row
implementation it replaced (``reference_*_positions`` below) exactly —
values *and* ordering — on randomized inputs, including NaN keys and
mixed dtypes. A NaN key joins nothing, while grouping and distinct treat
every NaN as one value, as SQL treats NULL. The CSR :class:`~repro.core.reward.CoverageTracker` must
agree with the dict-of-lists :class:`DictCoverageTracker` below on every
observable (covered counts and scores) under random
add/remove/reset/probe programs, its key id batches looked up from the
programs' tuples by ``tests/test_reward.py::intern``, which
:meth:`~repro.core.reward.CoverageIndex.lookup` must equal. ``benchmarks/bench_kernels.py`` times
the same references as the baseline side of its rows.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Optional, Sequence
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.approximation import TupleKey
from repro.core.reward import CoverageIndex, CoverageTracker, QueryCoverage
from repro.db import INT_NULL, kernels
from tests.test_action_env import as_rows, space_of
from tests.test_reward import covered_counts, intern, query_score


# ------------------------------------------------------------------ #
# the per-row implementations the kernels and the CSR tracker replaced
# ------------------------------------------------------------------ #
def reference_join_positions(
    build_keys: Sequence[np.ndarray], probe_keys: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Pre-vectorization per-row bucket join (ground truth / baseline)."""
    n_build = len(build_keys[0]) if build_keys else 0
    n_probe = len(probe_keys[0]) if probe_keys else 0
    n_cols = len(build_keys)
    buckets: dict[tuple, list[int]] = {}
    for i in range(n_build):
        key = tuple(build_keys[j][i] for j in range(n_cols))
        buckets.setdefault(key, []).append(i)
    probe_positions: list[int] = []
    build_positions: list[int] = []
    for i in range(n_probe):
        key = tuple(probe_keys[j][i] for j in range(n_cols))
        for b in buckets.get(key, ()):
            probe_positions.append(i)
            build_positions.append(b)
    return (
        np.asarray(probe_positions, dtype=np.int64),
        np.asarray(build_positions, dtype=np.int64),
    )


#: Every float NaN of a grouping or distinct key, as one value.
_NULL = object()


def _grouping_key(arrays: Sequence[np.ndarray], i: int) -> tuple:
    """Row ``i``'s key tuple with NaN as :data:`_NULL` (SQL's one NULL)."""
    return tuple(
        _NULL if isinstance(value, float) and value != value else value
        for value in (arr[i] for arr in arrays)
    )


def reference_distinct_positions(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Pre-vectorization per-row distinct (ground truth / baseline)."""
    n = len(arrays[0]) if arrays else 0
    seen: set[tuple] = set()
    keep: list[int] = []
    for i in range(n):
        key = _grouping_key(arrays, i)
        if key not in seen:
            seen.add(key)
            keep.append(i)
    return np.asarray(keep, dtype=np.int64)


def reference_group_by_positions(arrays: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Pre-vectorization per-row grouping (ground truth / baseline): each
    group's positions, ascending, groups in first-occurrence order."""
    n = len(arrays[0]) if arrays else 0
    groups: dict[tuple, list[int]] = {}
    for i in range(n):
        groups.setdefault(_grouping_key(arrays, i), []).append(i)
    return [np.asarray(positions, dtype=np.int64) for positions in groups.values()]


def reference_code_group_positions(
    codes: np.ndarray, n_codes: int
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Per-row grouping of dictionary codes: the codes that occur,
    ascending, and each one's positions."""
    groups = {int(codes[g[0]]): g for g in reference_group_by_positions([codes])}
    present = sorted(groups)
    return np.asarray(present, dtype=np.int64), [groups[code] for code in present]


def join_positions(build_keys, probe_keys) -> tuple[np.ndarray, np.ndarray]:
    """``kernels.join_positions`` with an identity probe (``None``: every
    probe row matches once, in order) spelled out as ``arange``."""
    probe_idx, build_idx = kernels.join_positions(build_keys, probe_keys)
    if probe_idx is None:
        assert len(build_idx) == (len(probe_keys[0]) if probe_keys else 0)
        probe_idx = np.arange(len(build_idx), dtype=np.int64)
    return probe_idx, build_idx


def group_positions(arrays: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Each group's positions, ascending, from the grouping kernels."""
    groups, sizes, _ = kernels.group_rows(*kernels.group_codes(arrays))
    assert sizes.tolist() == np.bincount(groups, minlength=len(sizes)).tolist()
    order = np.argsort(groups, kind="stable")
    return np.split(order, np.cumsum(sizes)[:-1]) if len(sizes) else []


class DictCoverageTracker:
    """Pre-vectorization dict-of-lists tracker (reference implementation).

    The reference of the differential tests here and in
    ``tests/test_properties.py`` and the baseline side of
    ``benchmarks/bench_kernels.py``; it reads each coverage's tuple view.
    Semantics are identical to :class:`CoverageTracker`; only the data
    layout differs.
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
            for r, requirement in enumerate(as_rows(coverage.tables, coverage.ids)):
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
            for r, requirement in enumerate(as_rows(coverage.tables, coverage.ids)):
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


# ------------------------------------------------------------------ #
# key-column strategies: int / float (with NaN) / string-object / bool
# ------------------------------------------------------------------ #


def _column(draw, kind: str, n: int) -> np.ndarray:
    if kind == "int":
        return np.asarray(draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n)))
    if kind == "big_int":
        values = st.sampled_from([-(10**9), -7, 0, 3, 10**9, 10**12])
        return np.asarray(draw(st.lists(values, min_size=n, max_size=n)))
    if kind == "float":
        values = st.sampled_from([-1.5, 0.0, 2.25, float("nan")])
        return np.asarray(draw(st.lists(values, min_size=n, max_size=n)))
    if kind == "str":
        values = st.sampled_from(["a", "b", "c", ""])
        return np.asarray(draw(st.lists(values, min_size=n, max_size=n)), dtype=object)
    return np.asarray(draw(st.lists(st.booleans(), min_size=n, max_size=n)))


_KINDS = ["int", "big_int", "float", "str", "bool"]


@st.composite
def _key_arrays(draw, min_rows: int = 0, max_rows: int = 30):
    n = draw(st.integers(min_rows, max_rows))
    kinds = draw(st.lists(st.sampled_from(_KINDS), min_size=1, max_size=3))
    return [_column(draw, kind, n) for kind in kinds]


#: Key tuples of the repeats-against-unique join shape and their columns'
#: dtypes, by key kind: NULLs (``INT_NULL``, NaN), several columns,
#: dictionary strings (aligned codes, as the executor joins them) and
#: plain ones.
_JOIN_KEY_TUPLES = {
    "int": (st.tuples(st.integers(-5, 60)), [np.int64]),
    "int_null": (st.tuples(st.one_of(st.integers(0, 40), st.just(INT_NULL))), [np.int64]),
    "float_nan": (
        st.tuples(st.sampled_from([-1.5, 0.0, 2.25, 7.0, float("nan")])), [np.float64]
    ),
    "dict_str": (st.tuples(st.sampled_from(["", "a", "ab", "b", "ba", "c"])), [str]),
    "str": (st.tuples(st.text("abc", max_size=2)), [object]),
    "two": (st.tuples(st.integers(0, 6), st.sampled_from(["x", "y", ""])), [np.int64, object]),
}


@st.composite
def _repeats_against_unique(draw):
    """A smaller side whose keys repeat against a larger side whose keys
    are unique — a foreign key after a filter against a primary key — as
    ``(build, probe)``: the repeating side is the one built on."""
    kind = draw(st.sampled_from(sorted(_JOIN_KEY_TUPLES)))
    values, dtypes = _JOIN_KEY_TUPLES[kind]
    unique = draw(st.lists(values, max_size=25, unique=True))
    pool = st.one_of(values, st.sampled_from(unique)) if unique else values
    repeats = draw(st.lists(pool, min_size=1, max_size=max(len(unique), 1)))
    repeats.append(draw(st.sampled_from(repeats)))  # at least one repeat
    build, probe = (
        [np.asarray([key[i] for key in keys], dtype=dtype) for i, dtype in enumerate(dtypes)]
        for keys in (repeats, unique)
    )
    if kind == "dict_str":  # each side's codes into its own sorted dictionary
        build_dict, build_codes = np.unique(build[0], return_inverse=True)
        probe_dict, probe_codes = np.unique(probe[0], return_inverse=True)
        _, build_map, probe_map = kernels.merge_dictionaries(build_dict, probe_dict)
        build, probe = [build_map[build_codes]], [probe_map[probe_codes]]
    return build, probe


@st.composite
def _key_array_pair(draw):
    if draw(st.booleans()):
        return draw(_repeats_against_unique())
    left = draw(_key_arrays(min_rows=0, max_rows=25))
    n = draw(st.integers(0, 25))
    kinds = [str(a.dtype) for a in left]
    right = []
    for arr in left:
        if arr.dtype == object:
            right.append(_column(draw, "str", n))
        elif arr.dtype == np.bool_:
            right.append(_column(draw, "bool", n))
        elif np.issubdtype(arr.dtype, np.floating):
            right.append(_column(draw, "float", n))
        else:
            right.append(_column(draw, "int", n))
    assert len(kinds) == len(right)
    return left, right


# ------------------------------------------------------------------ #
# kernel vs reference
# ------------------------------------------------------------------ #


@given(pair=_key_array_pair())
@settings(max_examples=150, deadline=None)
def test_join_positions_match_reference(pair):
    build, probe = pair
    ref_probe, ref_build = reference_join_positions(build, probe)
    got_probe, got_build = join_positions(build, probe)
    np.testing.assert_array_equal(got_probe, ref_probe)
    np.testing.assert_array_equal(got_build, ref_build)


@given(arrays=_key_arrays())
@settings(max_examples=150, deadline=None)
def test_distinct_positions_match_reference(arrays):
    np.testing.assert_array_equal(
        kernels.distinct_positions(arrays),
        reference_distinct_positions(arrays),
    )


@given(arrays=_key_arrays())
@settings(max_examples=150, deadline=None)
def test_group_by_positions_match_reference(arrays):
    got = group_positions(arrays)
    ref = reference_group_by_positions(arrays)
    # Group enumeration order is unspecified; compare as sets of position
    # tuples (positions within each group are required to be ascending).
    got_set = {tuple(g.tolist()) for g in got}
    ref_set = {tuple(g.tolist()) for g in ref}
    assert got_set == ref_set
    for group in got:
        assert np.all(np.diff(group) > 0) or len(group) == 1


def test_nan_keys_never_join_but_group_as_one():
    keys = [np.asarray([1.0, float("nan"), float("nan"), 1.0])]
    probe_idx, build_idx = kernels.join_positions(keys, keys)
    # Only the two 1.0 rows match (each against both), NaN never matches.
    assert sorted(zip(probe_idx.tolist(), build_idx.tolist())) == [
        (0, 0), (0, 3), (3, 0), (3, 3)
    ]
    # DISTINCT and GROUP BY: the NaNs (NULLs) are one value.
    np.testing.assert_array_equal(kernels.distinct_positions(keys), [0, 1])
    assert [g.tolist() for g in group_positions(keys)] == [[0, 3], [1, 2]]
    two = [keys[0], np.asarray([5, 5, 6, 5])]
    np.testing.assert_array_equal(kernels.distinct_positions(two), [0, 1, 2])


def _spread_keys(kind: str, ids: np.ndarray, rng: np.random.Generator) -> list[np.ndarray]:
    if kind == "int":
        return [ids]
    if kind == "two":
        return [ids, rng.integers(0, 3, len(ids))]
    if kind == "float_nan":
        values = ids.astype(np.float64)
        values[rng.random(len(ids)) < 0.1] = np.nan
        return [values]
    return [np.asarray([f"k{i}" for i in ids], dtype=object)]


@pytest.mark.parametrize("kind", ["int", "two", "float_nan", "object"])
@pytest.mark.parametrize("span", [None, 60_000, 400_000], ids=["dense", "6e4", "4e5"])
@pytest.mark.parametrize("n", [0, 1, 50, 300, 5000])
def test_join_positions_at_approximation_set_sizes(n, span, kind):
    """Few rows over a wide id span — the join index is sized by its input."""
    rng = np.random.default_rng(n + (span or 0))
    build_ids = rng.integers(0, span or max(n, 1), n)
    # Half the probe rows hit a build key, whatever the span.
    probe_ids = np.concatenate(
        [rng.choice(build_ids, n), rng.integers(0, span or max(n, 1), n)]
    )
    build = _spread_keys(kind, build_ids, rng)
    probe = _spread_keys(kind, probe_ids, rng)
    ref_probe, ref_build = reference_join_positions(build, probe)
    assert len(ref_probe) >= (n if kind == "int" else n // 4)
    got_probe, got_build = join_positions(build, probe)
    np.testing.assert_array_equal(got_probe, ref_probe)
    np.testing.assert_array_equal(got_build, ref_build)
    assert got_probe.dtype == got_build.dtype == np.int64


@pytest.mark.parametrize("kernel", [
    kernels.factorize_keys, kernels.distinct_positions,
    kernels.group_codes,
    lambda arrays: kernels.join_positions(arrays, [np.arange(5)] * 2),
], ids=["factorize", "distinct", "group_by", "join"])
def test_mismatched_key_lengths_raise(kernel):
    """Unequal-length key columns fail in numpy's broadcast, in every mode."""
    with pytest.raises(ValueError, match="broadcast"):
        kernel([np.arange(5), np.arange(6)])


_IDS = st.one_of(st.integers(-50, 500), st.integers(-50, 10**6))


@given(left=st.lists(_IDS, max_size=30), right=st.lists(_IDS, max_size=30))
@example(left=[], right=[3])
@example(left=[0, 10**6], right=[-50])
@settings(max_examples=150, deadline=None)
def test_one_int_key_pair_is_its_concatenation_factorized(left, right):
    """One integer key a side is offset without concatenating: the same
    codes and code count as factorizing the two sides concatenated."""
    left_key = np.asarray(left, dtype=np.int64)
    right_key = np.asarray(right, dtype=np.int32)
    got_left, got_right, got_n = kernels.factorize_key_pair([left_key], [right_key])
    codes, n_codes = kernels.factorize_keys([np.concatenate([left_key, right_key])])
    assert got_n == n_codes
    np.testing.assert_array_equal(got_left, codes[: len(left)])
    np.testing.assert_array_equal(got_right, codes[len(left):])
    assert got_left.dtype == got_right.dtype == np.int64


def test_factorize_keys_codes_are_bounded():
    rng = np.random.default_rng(0)
    arrays = [
        rng.integers(-(10**12), 10**12, size=200),
        rng.integers(0, 10**9, size=200),
        rng.integers(0, 50, size=200),
    ]
    codes, n_codes = kernels.factorize_keys(arrays)
    assert codes.min() >= 0
    assert codes.max() < n_codes
    assert n_codes <= kernels._code_limit(200)


# ------------------------------------------------------------------ #
# stable_argsort vs numpy's own stable sort
# ------------------------------------------------------------------ #
@given(
    n=st.one_of(st.integers(0, 200), st.integers(0, 5000)),
    n_codes=st.sampled_from([1, 1 << 16, (1 << 16) + 1, 1 << 32, (1 << 32) + 1]),
    shape=st.sampled_from(["random", "few", "top", "equal", "sorted", "reversed"]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_stable_argsort_is_numpys_stable_order(n, n_codes, shape, seed):
    rng = np.random.default_rng(seed)
    if shape == "few":       # ties everywhere: stability is what is tested
        codes = rng.integers(0, min(n_codes, 7), size=n)
    elif shape == "top":     # the largest codes the range allows
        codes = n_codes - 1 - rng.integers(0, min(n_codes, 70_000), size=n)
    elif shape == "equal":
        codes = np.full(n, int(rng.integers(0, n_codes)))
    else:
        codes = rng.integers(0, n_codes, size=n)
    if shape == "sorted":
        codes = np.sort(codes)
    if shape == "reversed":
        codes = np.sort(codes)[::-1]
    codes = codes.astype(np.int64)
    kept = codes.copy()
    order = kernels.stable_argsort(codes, n_codes)
    want = np.argsort(codes, kind="stable")
    assert order.dtype == want.dtype and np.array_equal(order, want)
    assert np.array_equal(codes, kept)


def test_stable_argsort_takes_every_path(monkeypatch):
    """The thresholds route as documented — so the property above cannot
    pass because a constant sends everything to plain ``np.argsort``."""
    rng = np.random.default_rng(0)
    few = rng.integers(0, 50, size=kernels._ONE_DIGIT_MIN_ROWS)
    wide = rng.integers(0, 1 << 20, size=kernels._TWO_DIGIT_MIN_ROWS)
    sorted_as: list[str] = []
    argsort = np.argsort
    monkeypatch.setattr(
        np, "argsort", lambda a, **kw: sorted_as.append(str(a.dtype)) or argsort(a, **kw)
    )
    for codes, n_codes, passes in [
        (few, 50, ["uint16"]),
        (few[:-1], 50, ["int64"]),                  # too few rows for the cast
        (wide, 1 << 20, ["uint16", "uint16"]),
        (np.sort(wide), 1 << 20, ["int64"]),        # one run: the merge sort's case
        (wide[:-1], 1 << 20, ["int64"]),            # too few rows for two passes
        (wide, (1 << 32) + 1, ["int64"]),
    ]:
        sorted_as.clear()
        kernels.stable_argsort(codes, n_codes)
        assert sorted_as == passes


# ------------------------------------------------------------------ #
# sorted_unique vs np.unique, the probe vs its three-repeat form
# ------------------------------------------------------------------ #
_UNIQUE_ARRAYS = st.one_of(
    st.lists(st.integers(-(2**62), 2**62)).map(lambda v: np.asarray(v, dtype=np.int64)),
    st.lists(st.integers(-50, 50)).map(lambda v: np.asarray(v, dtype=np.int32)),
    st.lists(st.text("abc", max_size=3)).map(lambda v: np.asarray(v, dtype=str)),
    st.lists(st.text("abc", max_size=3)).map(lambda v: np.asarray(v, dtype=object)),
    st.lists(st.booleans()).map(lambda v: np.asarray(v, dtype=bool)),
    st.lists(st.sampled_from([np.nan, -0.0, 0.0, 1.5, -2.0, np.inf])).map(
        lambda v: np.asarray(v, dtype=np.float64)
    ),
)


@given(values=_UNIQUE_ARRAYS)
@example(values=np.array([np.nan, np.nan, np.nan]))  # NaNs only
@settings(max_examples=300, deadline=None)
def test_sorted_unique_is_np_unique(values):
    kept = values.copy()
    got, want = kernels.sorted_unique(values), np.unique(values)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)  # NaN == NaN here
    if values.dtype.kind == "f":
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
    np.testing.assert_array_equal(values, kept)


def bucket_join_index(build_codes, n_codes):
    """The bucket layout every build had before unique codes got a
    direct-address index: ``(order, code_starts, code_counts)``."""
    code_counts = np.bincount(build_codes, minlength=n_codes)
    code_starts = np.concatenate(([0], np.cumsum(code_counts[:-1])))
    return np.argsort(build_codes, kind="stable"), code_starts, code_counts


def three_repeat_probe(probe_codes, order, code_starts, code_counts):
    """The probe of a bucket layout before its unique-build-key gather and
    two-repeat form."""
    counts = code_counts[probe_codes]
    total = int(counts.sum())
    probe_idx = np.repeat(np.arange(len(probe_codes), dtype=np.int64), counts)
    if total == 0:
        return probe_idx, np.zeros(0, dtype=np.int64)
    match_starts = np.cumsum(counts) - counts
    within = np.arange(total, dtype=np.int64) - np.repeat(match_starts, counts)
    build_idx = order[np.repeat(code_starts[probe_codes], counts) + within]
    return probe_idx, build_idx.astype(np.int64, copy=False)


def bucket_join_positions(build_keys, probe_keys):
    """``join_positions`` as it was on inputs that need no redensifying:
    every build through the bucket layout and the three-repeat probe."""
    build_codes, probe_codes, n_codes = kernels.factorize_key_pair(build_keys, probe_keys)
    return three_repeat_probe(probe_codes, *bucket_join_index(build_codes, n_codes))


@given(
    n_codes=st.integers(1, 40),
    build=st.lists(st.integers(0, 39), max_size=60),
    probe=st.lists(st.integers(0, 39), max_size=60),
    unique_build=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_probe_matches_three_repeat_form(n_codes, build, probe, unique_build):
    build_codes = np.asarray(build, dtype=np.int64) % n_codes
    if unique_build:
        build_codes = np.unique(build_codes)[::-1].copy()
    probe_codes = np.asarray(probe, dtype=np.int64) % n_codes
    index = kernels.build_join_index(build_codes, n_codes)
    # Unique codes, and only they, take the direct-address index.
    unique = len(np.unique(build_codes)) == len(build_codes)
    assert (index.position is not None) == unique
    got_probe, got_build = kernels.probe_factorized(probe_codes, index)
    want = three_repeat_probe(probe_codes, *bucket_join_index(build_codes, n_codes))
    # The identity probe comes back as None, and only from a unique build.
    assert (got_probe is None) == (unique and len(want[0]) == len(probe_codes))
    if got_probe is None:
        got_probe = np.arange(len(probe_codes), dtype=np.int64)
    for g, w in zip((got_probe, got_build), want):
        assert g.dtype == w.dtype == np.int64
        np.testing.assert_array_equal(g, w)


_PK_CASES = {
    "all_miss": ([np.asarray([3, 1, 2])], [np.asarray([7, 8, 9, 0])]),
    "empty_build": ([np.asarray([], dtype=np.int64)], [np.asarray([1, 2])]),
    "empty_probe": ([np.asarray([1, 2])], [np.asarray([], dtype=np.int64)]),
    "nan_keys": (
        [np.asarray([2.0, np.nan, 1.0, 0.5])],
        [np.asarray([np.nan, 1.0, 2.0, np.nan, 1.0, 4.0])],
    ),
    "duplicate_probe": (
        [np.asarray([5, 0, 9, 3])],
        [np.asarray([9, 9, 3, 4, 5, 9, 0, 0, 3])],
    ),
    "two_columns": (
        [np.asarray([1, 1, 2]), np.asarray(["a", "b", "a"], dtype=object)],
        [np.asarray([2, 1, 1, 1]), np.asarray(["a", "b", "b", "c"], dtype=object)],
    ),
}


@pytest.mark.parametrize("case", sorted(_PK_CASES))
def test_primary_key_probe_matches_reference(case):
    build, probe = _PK_CASES[case]
    got = join_positions(build, probe)
    want = reference_join_positions(build, probe)
    for g, w in zip(got, want):
        assert g.dtype == np.int64
        np.testing.assert_array_equal(g, w)


# ------------------------------------------------------------------ #
# the sorted-search join of sparse keys vs the reference
# ------------------------------------------------------------------ #
#: The density switch of `kernels.join_positions`: codes a row of both sides.
_CODES_PER_ROW = 8


def _with_second_column(kind: str, ids: list, draw) -> list[np.ndarray]:
    """The ids as one INT key, or beside a second column whose codes
    multiply theirs (so the pair factorizes into sparse codes)."""
    keys = [np.asarray(ids, dtype=np.int64)]
    if kind in ("int", "int_null"):
        return keys
    values = {
        "two": st.integers(0, 2),
        "float_nan": st.sampled_from([0.5, 1.5, float("nan")]),
        "object": st.sampled_from(["a", "b", ""]),
    }[kind]
    second = draw(st.lists(values, min_size=len(ids), max_size=len(ids)))
    dtype = {"two": np.int64, "float_nan": np.float64, "object": object}[kind]
    return keys + [np.asarray(second, dtype=dtype)]


@st.composite
def _spread_join(draw):
    """Build and probe keys whose ids span just 8 codes a row of both
    sides, one code more (the switch to the sorted search), or past the
    64k floor; unique or duplicate build keys; probes that all hit, or
    that miss too; INT_NULL on either side; empty sides."""
    kind = draw(st.sampled_from(["int", "int_null", "two", "float_nan", "object"]))
    n_build, n_probe = draw(st.integers(0, 25)), draw(st.integers(0, 25))
    rows = n_build + n_probe
    span = max(1, draw(st.sampled_from([
        _CODES_PER_ROW * rows, _CODES_PER_ROW * rows + 1,
        (1 << 16) + draw(st.integers(1, 10**6)),
    ])))
    if draw(st.booleans()):  # unique build ids, the extremes among them
        inner = st.integers(1, max(span - 2, 1))
        build = draw(st.lists(inner, min_size=n_build, max_size=n_build, unique=True))
    else:  # a few ids, repeated
        pool = draw(st.lists(st.integers(0, span - 1), min_size=1, max_size=4))
        build = draw(st.lists(st.sampled_from(pool), min_size=n_build, max_size=n_build))
    if n_build >= 2:
        build[0], build[-1] = 0, span - 1
    if build and draw(st.booleans()):
        values = st.sampled_from(build)  # every probe id hits
    else:
        values = st.one_of(st.integers(0, span - 1), *([st.sampled_from(build)] if build else []))
    probe = draw(st.lists(values, min_size=n_probe, max_size=n_probe))
    if kind == "int_null":
        for ids in draw(st.sampled_from([[build], [probe], [build, probe]])):
            for i in draw(st.sets(st.integers(0, max(len(ids) - 1, 0)), max_size=3)):
                if i < len(ids):
                    ids[i] = INT_NULL
    return _with_second_column(kind, build, draw), _with_second_column(kind, probe, draw)



@given(pair=_spread_join())
@example(pair=([np.asarray([0, 31])], [np.asarray([31, 0])]))  # 32 codes, 4 rows: index
@example(pair=([np.asarray([0, 32])], [np.asarray([32, 0])]))  # 33 codes: search, None
@example(pair=([np.asarray([5, 0, 5, 32])], [np.asarray([5, 32, 7])]))
@example(pair=([np.asarray([], dtype=np.int64)], [np.asarray([0, 60_000])]))
@example(pair=([np.asarray([0, 60_000])], [np.asarray([], dtype=np.int64)]))
@example(pair=([np.asarray([], dtype=np.int64)], [np.asarray([], dtype=np.int64)]))
@settings(max_examples=400, deadline=None)
def test_sparse_keys_join_by_sorted_search(pair):
    """Keys spread over more than 8 codes a row join by sorting the build
    side and searching the probe, denser keys through the code index; both
    give the reference's matches, in its order, and ``None`` for the probe
    side exactly when a unique build side is hit by every probe row."""
    build, probe = pair
    n_build, n_probe = len(build[0]), len(probe[0])
    if len(build) == 1 and n_build and n_probe:  # one INT key: its value span
        both = np.concatenate([build[0], probe[0]])
        n_codes = int(both.max()) - int(both.min()) + 1
    else:
        n_codes = kernels.factorize_key_pair(build, probe)[2]
    sparse = n_codes > _CODES_PER_ROW * (n_build + n_probe)
    with mock.patch.object(kernels, "search_join", wraps=kernels.search_join) as searched:
        got_probe, got_build = kernels.join_positions(build, probe)
    # The dense path never searches: it indexes one side by code.
    assert searched.called == sparse
    want_probe, want_build = reference_join_positions(build, probe)
    build_codes, _ = kernels.factorize_keys(build)
    unique = len(np.unique(build_codes)) == n_build
    assert (got_probe is None) == (unique and len(want_probe) == n_probe)
    if got_probe is None:
        got_probe = np.arange(n_probe, dtype=np.int64)
    for got, want in ((got_probe, want_probe), (got_build, want_build)):
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)


# ------------------------------------------------------------------ #
# the unique-key index and dictionary-code grouping vs the references
# ------------------------------------------------------------------ #
_UNIQUE_KEY_VALUES = {
    "int": st.one_of(st.integers(-5, 40), st.just(INT_NULL)),
    "sparse": st.integers(0, 60_000),  # few rows over a span: searched
    "float": st.sampled_from([-1.5, 0.0, 0.5, 2.25, 7.0]),
    "str": st.text("abc", max_size=3),
    "two": st.tuples(st.integers(0, 4), st.sampled_from(["x", "y", ""])),
}


def _key_columns(kind: str, values: list) -> list[np.ndarray]:
    if kind == "two":
        return [
            np.asarray([v[0] for v in values], dtype=np.int64),
            np.asarray([v[1] for v in values], dtype=object),
        ]
    dtype = {"float": np.float64, "str": object}.get(kind, np.int64)
    return [np.asarray(values, dtype=dtype)]


@st.composite
def _unique_build_and_probe(draw):
    """Unique build keys (NaN rows among float ones, which never equal
    anything), and probe keys drawn from them and from misses."""
    kind = draw(st.sampled_from(sorted(_UNIQUE_KEY_VALUES)))
    values = _UNIQUE_KEY_VALUES[kind]
    build = draw(st.lists(values, max_size=25, unique=True))
    misses = st.lists(values, max_size=25)
    hits = st.lists(st.sampled_from(build), max_size=40) if build else st.just([])
    probe = draw(st.permutations(draw(hits) + draw(misses)))
    build_keys, probe_keys = _key_columns(kind, build), _key_columns(kind, probe)
    if kind == "float":
        for keys in (build_keys, probe_keys):
            nan = draw(st.lists(st.booleans(), min_size=len(keys[0]), max_size=len(keys[0])))
            keys[0][np.asarray(nan, dtype=bool)] = np.nan
    return build_keys, probe_keys


@given(pair=_unique_build_and_probe())
@example(pair=([np.asarray([], dtype=np.int64)], [np.asarray([1, 2])]))
@example(pair=([np.asarray([3, 1])], [np.asarray([], dtype=np.int64)]))
@example(pair=([np.asarray([INT_NULL, 0])], [np.asarray([0, INT_NULL, 5, INT_NULL])]))
@settings(max_examples=300, deadline=None)
def test_unique_key_join_matches_reference(pair):
    build, probe = pair
    build_codes, _, n_codes = kernels.factorize_key_pair(build, probe)
    assert kernels.build_join_index(build_codes, n_codes).position is not None
    # Unique build keys: the probe is the identity iff every probe row hits.
    identity = kernels.join_positions(build, probe)[0] is None
    got = join_positions(build, probe)
    want = reference_join_positions(build, probe)
    assert identity == (len(want[0]) == len(probe[0]))
    for g, w in zip(got, want):
        assert g.dtype == np.int64
        np.testing.assert_array_equal(g, w)


@given(
    n_codes=st.integers(1, 300),
    drawn=st.lists(st.integers(0, 299), max_size=400),
    used=st.integers(1, 300),
)
@settings(max_examples=200, deadline=None)
def test_code_groups_match_reference(n_codes, drawn, used):
    """Codes of a dictionary of ``n_codes`` entries of which the rows use
    at most ``used``: unused codes form no group, and each group is
    numbered by its code's rank (sparse codes renumbered by a sort)."""
    codes = np.asarray(drawn, dtype=np.int32) % min(used, n_codes)
    groups, sizes, present = kernels.group_rows(codes, n_codes)
    want_present, want_groups = reference_code_group_positions(codes, n_codes)
    np.testing.assert_array_equal(present, want_present)
    assert sizes.tolist() == [len(want) for want in want_groups]
    assert len(groups) == len(codes)
    for number, want in enumerate(want_groups):
        np.testing.assert_array_equal(np.flatnonzero(groups == number), want)


def reference_estimate_ndv(array, sample_cap: int = 8192) -> int:
    """``estimate_ndv`` as it was, counting with ``np.unique``."""
    values = np.asarray(array)
    n = len(values)
    if n == 0:
        return 0
    sample = values[:: -(-n // sample_cap)] if n > sample_cap else values
    distinct = len(np.unique(sample))
    if len(sample) == n:
        return distinct
    return max(distinct, int(distinct * n / len(sample)))


def test_estimate_ndv_unchanged_on_generated_join_keys():
    from repro.datasets import (
        make_flights_database, make_imdb_database, make_mas_database,
    )
    from repro.datasets.synthetic import skewed_foreign_keys
    from repro.db.statistics import estimate_ndv

    columns = [skewed_foreign_keys(20_000, 3_000, np.random.default_rng(1))]
    for make in (make_imdb_database, make_mas_database, make_flights_database):
        db = make(scale=2.0)
        for table in db:
            for fk in table.schema.foreign_keys:
                ref = db.table(fk.ref_table)
                for t, name in ((table, fk.column), (ref, fk.ref_column)):
                    columns += [t.column(name), t.raw_column(name)]
    assert any(len(c) > 8192 for c in columns)
    for column in columns:
        assert estimate_ndv(column) == reference_estimate_ndv(column)


# ------------------------------------------------------------------ #
# CSR CoverageTracker vs dict reference
# ------------------------------------------------------------------ #

_KEYS = [(t, i) for t in ("a", "b") for i in range(6)]


@st.composite
def _coverages(draw):
    """Columnar coverages as the executor produces them: every row of a
    query holds one row id per table of that query."""
    n_queries = draw(st.integers(1, 4))
    out = []
    for q in range(n_queries):
        tables = draw(st.sampled_from([("a",), ("b",), ("a", "b")]))
        n_rows = draw(st.integers(0, 5))
        ids = draw(st.lists(
            st.lists(st.integers(0, 5), min_size=len(tables), max_size=len(tables)),
            min_size=n_rows, max_size=n_rows,
        ))
        out.append(
            QueryCoverage(
                name=f"q{q}",
                weight=draw(st.floats(0.25, 2.0, allow_nan=False)),
                denominator=max(n_rows, draw(st.integers(1, 6))),
                tables=tables,
                ids=np.asarray(ids, dtype=np.int64).reshape(n_rows, len(tables)),
            )
        )
    return out


_PROGRAM_OPS = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove", "add_batch", "remove_batch",
                         "add_action", "remove_action",
                         "reset", "score_with", "probe"]),
        st.lists(st.sampled_from(_KEYS + [("zz", 99)]), min_size=0, max_size=12),
    ),
    min_size=1,
    max_size=20,
)


def _assert_trackers_agree(csr: CoverageTracker, ref: DictCoverageTracker):
    np.testing.assert_array_equal(covered_counts(csr), ref.covered_counts())
    assert csr.batch_score() == pytest.approx(ref.batch_score())
    for q in range(csr.n_queries):
        assert query_score(csr, q) == pytest.approx(ref.query_score(q))


def _run_program(csr: CoverageTracker, ref: DictCoverageTracker, program):
    """A batch is one holder of each of its distinct keys: the tracker gets
    their ids, the reference the distinct keys."""
    for op, keys in program:
        ids, distinct = intern(csr.index, keys), list(dict.fromkeys(keys))
        if op == "add":
            for key in keys:
                csr.add_keys(intern(csr.index, [key]))
                ref.add_key(key)
        elif op == "remove":
            for key in keys:
                csr.remove_keys(intern(csr.index, [key]))
                ref.remove_key(key)
        elif op == "add_batch":
            csr.add_keys(ids)
            ref.add_keys(distinct)
        elif op == "remove_batch":
            csr.remove_keys(ids)
            ref.remove_keys(distinct)
        elif op in ("add_action", "remove_action") and keys:
            # What an environment does: the action's ids as the index's one
            # pass over a space gives them (unknown keys dropped).
            flat, offsets = csr.index.intern_actions(space_of([(tuple(keys), 0)]))
            if op == "add_action":
                csr.add_keys(flat[: offsets[1]])
                ref.add_keys(distinct)
            else:
                csr.remove_keys(flat[: offsets[1]])
                ref.remove_keys(distinct)
        elif op == "reset":
            csr.reset()
            ref.reset()
        elif op == "score_with":
            assert csr.score_with_keys(ids) == pytest.approx(
                ref.score_with_keys(keys)
            )
        elif op == "probe":
            before = csr.batch_score()
            probe = csr.probe_add_score(ids)
            # probe must not mutate observable state...
            assert csr.batch_score() == pytest.approx(before)
            # ...and must equal the add-then-score value of the reference.
            ref_probe = ref.score_with_keys(
                list(ref._present.keys()) + list(keys)
            )
            assert probe == pytest.approx(ref_probe)
        _assert_trackers_agree(csr, ref)


@given(coverages=_coverages(), keys=st.lists(
    st.tuples(st.sampled_from(["a", "b", "zz"]), st.integers(0, 9)), max_size=30,
))
@settings(max_examples=120, deadline=None)
def test_lookup_equals_the_tuple_intern(coverages, keys):
    """Key by key, ``lookup`` gives ``intern``'s id, and -1 for a key of a
    table no coverage spans ("zz", and "a" or "b" when no coverage draws
    it) or a row id no requirement row holds (6-9, as in BRT's pool); the
    space of the keys as one action gets the same distinct ids."""
    index = CoverageIndex(coverages)
    for table in ("a", "b", "zz"):
        rows = np.asarray([row for t, row in keys if t == table], dtype=np.int64)
        want = [intern(index, [(table, row)]).tolist() or [-1] for row in rows]
        assert index.lookup(table, rows).tolist() == [w[0] for w in want]
    if keys:
        space = space_of([(tuple(keys), 0)])
        ids = index.space_ids(space)[space.key_ids]
        assert kernels.sorted_unique(ids[ids >= 0]).tolist() == intern(index, keys).tolist()
        assert index.intern_actions(space)[0].tolist() == intern(index, keys).tolist()


@given(coverages=_coverages(), program=_PROGRAM_OPS)
@settings(max_examples=120, deadline=None)
def test_csr_tracker_matches_dict_tracker(coverages, program):
    _run_program(CoverageTracker(coverages), DictCoverageTracker(coverages), program)


@given(coverages=_coverages(), program=_PROGRAM_OPS, other=_PROGRAM_OPS)
@settings(max_examples=120, deadline=None)
def test_shared_index_trackers_are_independent(coverages, program, other):
    """Trackers over one CoverageIndex each behave like a tracker alone:
    running another program on a sibling in between changes nothing."""
    index = CoverageIndex(coverages)
    first = CoverageTracker(coverages, index)
    second = CoverageTracker(coverages, index)
    assert first.index is second.index is index
    second_ref = DictCoverageTracker(coverages)
    _run_program(second, second_ref, other)
    _run_program(first, DictCoverageTracker(coverages), program)
    _assert_trackers_agree(second, second_ref)
    second.reset()
    first.reset()
    np.testing.assert_array_equal(index.initial_missing, first._missing)
    np.testing.assert_array_equal(covered_counts(first), index.initial_covered)


@given(coverages=_coverages(), keys=st.lists(st.sampled_from(_KEYS), max_size=15),
       boosted=st.sets(st.integers(0, 3)))
@settings(max_examples=80, deadline=None)
def test_boosted_weights_on_shared_index(coverages, keys, boosted):
    """The fine-tune weight boost is tracker state: sharing the plain
    coverages' index scores exactly like rebuilding from the boosted ones."""
    lifted = [
        dataclasses.replace(c, weight=c.weight * 4.0) if q in boosted else c
        for q, c in enumerate(coverages)
    ]
    shared = CoverageTracker(lifted, CoverageIndex(coverages))
    rebuilt = CoverageTracker(lifted)
    plain = CoverageTracker(coverages, shared.index)
    ids = intern(shared.index, keys)
    for tracker in (shared, rebuilt, plain):
        tracker.add_keys(ids)
    assert shared.batch_score() == rebuilt.batch_score()
    assert shared.batch_score([0]) == rebuilt.batch_score([0])
    np.testing.assert_array_equal(covered_counts(shared), covered_counts(plain))
    assert plain.batch_score() == CoverageTracker(coverages).score_with_keys(ids)


def test_index_for_other_coverages_is_refused():
    one = [QueryCoverage("q", 1.0, 1, ("t",), [[1]])]
    two = one + [QueryCoverage("r", 1.0, 1, ("t",), [[2]])]
    with pytest.raises(ValueError, match="other coverages"):
        CoverageTracker(two, CoverageIndex(one))


@given(coverages=_coverages(), batch=st.lists(st.sampled_from(_KEYS), max_size=15))
@settings(max_examples=80, deadline=None)
def test_batch_equals_one_key_batches(coverages, batch):
    """One add_keys/remove_keys batch must equal one-key batches of its
    distinct keys in a loop."""
    batched = CoverageTracker(coverages)
    one_by_one = CoverageTracker(coverages)
    batched.add_keys(intern(batched.index, batch))
    for key in dict.fromkeys(batch):
        one_by_one.add_keys(intern(one_by_one.index, [key]))
    np.testing.assert_array_equal(covered_counts(batched), covered_counts(one_by_one))
    half = batch[: len(batch) // 2]
    batched.remove_keys(intern(batched.index, half))
    for key in dict.fromkeys(half):
        one_by_one.remove_keys(intern(one_by_one.index, [key]))
    np.testing.assert_array_equal(covered_counts(batched), covered_counts(one_by_one))
    assert batched.batch_score() == pytest.approx(one_by_one.batch_score())
