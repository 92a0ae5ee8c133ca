"""Vectorized execution kernels shared by the relational executor.

The executor's three inner loops — hash-join index building/probing,
stable ``DISTINCT``, and hash-aggregation grouping — all reduce to one
primitive: *multi-column key factorization*. :func:`factorize_keys`
encodes a tuple of key columns into bounded dense ``int64`` codes (equal
row tuples ⇔ equal codes). A join then indexes its build side by code —
a direct-address array when the build codes are unique (every
primary-key join: the probe is one gather), else a stable argsort +
``bincount``-indexed buckets; build codes that repeat against unique
probe codes put the direct-address array on the probe side instead —
unless its keys are sparse, more than 8
codes a row (an approximation set's few ids over its base table's
range): those it joins by sorting the build keys and binary-searching
the probe (:func:`search_join`), so its cost follows the rows, not the
range. Distinct becomes a first-occurrence scan over sorted codes, and
grouping numbers each row's group (:func:`group_rows`; a dictionary
column's codes group as they are, with no factorization), so an
aggregate reduces each column in one pass whatever the number of
groups. Integer key columns take a sort-free min/max offset path, and
one integer key a join side is never factorized at all. A join side may
bring its key's :class:`KeyFacts` (bounds and uniqueness its table
computed once): the join then reads them instead of reducing, counting
or sorting the key.

Every kernel reproduces the row ordering of the original per-row
implementations exactly:

* joins emit matches in probe-row order, ascending build position within
  a key group (the dict-of-buckets order);
* distinct keeps the first occurrence of each key, in input order.

Float ``NaN`` keys follow SQL: a NULL key joins nothing — ``NaN`` never
equals anything in :func:`factorize_keys`, the codes a join compares —
while grouping and ``DISTINCT`` (:func:`group_codes`) treat every NULL as
one value.

The per-row implementations these kernels replaced live in
``tests/test_kernels.py`` (``reference_*_positions``): the ground truth
of the differential tests and the baseline side of
``benchmarks/bench_kernels.py``.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np


# ------------------------------------------------------------------ #
# key factorization
# ------------------------------------------------------------------ #
#: Codes allowed per row before a code range counts as sparse.
_CODES_PER_ROW = 8


def _code_limit(n: int) -> int:
    """Largest code range we allow before re-densifying.

    8 codes per row (min 64k) is cheap in memory and avoids the sort that
    densification costs. Distinct never scans the range;
    :func:`join_positions` and :func:`group_rows`, which do, drop the
    floor.
    """
    return max(1 << 16, _CODES_PER_ROW * n)


def _encode_column(values: np.ndarray) -> tuple[np.ndarray, int, np.ndarray | None]:
    """Encode one key column as bounded non-negative codes.

    Returns ``(codes, n_codes, nan_mask)`` where ``nan_mask`` marks float
    ``NaN`` entries (``None`` when the dtype cannot hold NaN). NaN rows
    receive a placeholder code here; :func:`factorize_keys` reassigns
    them unique never-matching codes at the end.
    """
    values = np.asarray(values)
    n = len(values)
    if n == 0:
        return np.zeros(0, dtype=np.int64), 1, None

    if values.dtype == object:
        # First-occurrence interning uses exactly Python's ==/hash like
        # the old per-row tuples did, and beats sorting object arrays.
        # The C-level map() assigns the running position as the default,
        # so repeated values leave holes: n bounds the code range.
        table: dict = {}
        codes = np.fromiter(
            map(table.setdefault, values, _counter()), dtype=np.int64, count=n
        )
        return codes, n, None

    if values.dtype == np.bool_:
        return values.astype(np.int64), 2, None

    nan_mask: np.ndarray | None = None
    if np.issubdtype(values.dtype, np.floating):
        isnan = np.isnan(values)
        if isnan.any():
            nan_mask = isnan
    elif np.issubdtype(values.dtype, np.integer):
        # Sort-free path: offset into the value span when it is dense
        # enough (the common case for id columns).
        vmin = int(values.min())
        vmax = int(values.max())
        span = vmax - vmin + 1
        if span <= _code_limit(n):
            return values.astype(np.int64) - vmin, span, None

    _, inverse = np.unique(values, return_inverse=True)
    codes = inverse.astype(np.int64, copy=False).reshape(-1)
    return codes, int(codes.max()) + 1, nan_mask


def sorted_unique(values) -> np.ndarray:
    """``np.unique(values)``: the sorted distinct values, NaNs collapsed
    to one, computed by numpy's own sort branch.

    numpy 2.x sends a plain ``np.unique`` of an int or fixed-width string
    array through a hash set that is 12-16x slower than this sort at
    8000 rows (~50 vs 550-880 µs); floats, bool and object arrays already
    take the sort, so the output is ``np.unique``'s for every real dtype.
    """
    aux = np.sort(np.asarray(values).ravel())
    if len(aux) == 0:
        return aux
    mask = np.empty(len(aux), dtype=bool)
    mask[0] = True
    if aux.dtype.kind in "fmM" and np.isnan(aux[-1]):
        # NaNs sort last: keep the first of them only.
        first_nan = np.searchsorted(aux, aux[-1], side="left")
        before = max(first_nan - 1, 0)  # 0 when every value is NaN
        np.not_equal(aux[1:first_nan], aux[:before], out=mask[1:first_nan])
        mask[first_nan] = True
        mask[first_nan + 1 :] = False
    else:
        np.not_equal(aux[1:], aux[:-1], out=mask[1:])
    return aux[mask]


def _counter() -> Iterator[int]:
    i = 0
    while True:
        yield i
        i += 1


def _redensify(codes: np.ndarray) -> tuple[np.ndarray, int]:
    _, inverse = np.unique(codes, return_inverse=True)
    codes = inverse.astype(np.int64, copy=False).reshape(-1)
    return codes, (int(codes.max()) + 1 if len(codes) else 1)


def _combine(arrays: Sequence[np.ndarray]) -> tuple[np.ndarray, int, Optional[np.ndarray]]:
    """``(codes, n_codes, nan_rows)``: equal key tuples get equal codes, a
    column's NaNs one code, and ``nan_rows`` marks them (None: none)."""
    arrays = [np.asarray(a) for a in arrays]
    if not arrays:
        return np.zeros(0, dtype=np.int64), 1, None
    n = len(arrays[0])
    limit = _code_limit(n)
    codes = np.zeros(n, dtype=np.int64)
    radix = 1
    invalid: np.ndarray | None = None
    for array in arrays:
        col_codes, col_n, nan_mask = _encode_column(array)
        if radix * col_n > limit:
            codes, radix = _redensify(codes)
        if radix * col_n > limit:  # still too wide: combine then densify
            codes = codes * col_n + col_codes
            codes, radix = _redensify(codes)
        else:
            codes = codes * col_n + col_codes
            radix *= col_n
        if nan_mask is not None:
            invalid = nan_mask if invalid is None else (invalid | nan_mask)
    return codes, radix, invalid


def factorize_keys(arrays: Sequence[np.ndarray]) -> tuple[np.ndarray, int]:
    """Encode a tuple of equal-length key columns into the codes a join
    compares.

    Returns ``(codes, n_codes)`` with ``codes`` in ``[0, n_codes)`` and
    ``n_codes <= max(2**16, 8 * n_rows) + n_nan_rows``. Rows with equal
    key tuples get equal codes; rows containing a float ``NaN`` get
    unique codes (NaN != NaN: a NULL key joins nothing).
    """
    codes, radix, invalid = _combine(arrays)
    if invalid is not None:
        n_invalid = int(invalid.sum())
        codes[invalid] = radix + np.arange(n_invalid, dtype=np.int64)
        radix += n_invalid
    return codes, radix


def group_codes(arrays: Sequence[np.ndarray]) -> tuple[np.ndarray, int]:
    """:func:`factorize_keys` for grouping and ``DISTINCT``: every
    ``NaN`` of a column is one value, as SQL groups its NULLs."""
    codes, radix, _ = _combine(arrays)
    return codes, radix


class KeyFacts(NamedTuple):
    """What is known of an integer key column without reading it.

    ``low`` and ``high`` bound its non-NULL values (``0`` and ``-1`` when
    it has none), ``null_free`` says no value is NULL, and ``unique`` that
    no value occurs twice (a NULL counting as a value). A table computes
    them for its columns (:meth:`repro.db.table.Table.key_facts`); a join
    reads ``low``, ``high`` and ``unique`` of a side's key instead of
    reducing, counting or sorting it, so a side passes facts only when
    ``low <= value <= high`` holds for every value it holds.
    """

    low: int
    high: int
    null_free: bool
    unique: bool


def _bounds(values: np.ndarray, facts: Optional[KeyFacts]) -> tuple[int, int]:
    if facts is None:
        return int(values.min()), int(values.max())
    return facts.low, facts.high


def _one_int_key(
    left_arrays: Sequence[np.ndarray],
    right_arrays: Sequence[np.ndarray],
    left_facts: Optional[KeyFacts] = None,
    right_facts: Optional[KeyFacts] = None,
) -> Optional[tuple[np.ndarray, np.ndarray, int, int]]:
    """``(left, right, low, span)`` when each side is one non-empty integer
    key column: the smallest value of both and the width of their shared
    value range (one min and one max a side, or the side's facts). None
    for any other key."""
    if len(left_arrays) != 1 or len(right_arrays) != 1:
        return None
    left, right = np.asarray(left_arrays[0]), np.asarray(right_arrays[0])
    if not (len(left) and len(right) and left.dtype.kind == right.dtype.kind == "i"):
        return None
    left_low, left_high = _bounds(left, left_facts)
    right_low, right_high = _bounds(right, right_facts)
    low = min(left_low, right_low)
    return left, right, low, max(left_high, right_high) - low + 1


def factorize_key_pair(
    left_arrays: Sequence[np.ndarray], right_arrays: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray, int]:
    """Jointly factorize two sides' key columns into comparable codes; one
    integer key a side is offset into the span both share without
    concatenating them (the codes the concatenation gets)."""
    if len(left_arrays) != len(right_arrays):
        raise ValueError("key column counts differ between sides")
    one_int = _one_int_key(left_arrays, right_arrays)
    if one_int is not None:
        left, right, low, span = one_int
        if span <= _code_limit(len(left) + len(right)):
            return (
                left.astype(np.int64, copy=False) - low,
                right.astype(np.int64, copy=False) - low,
                span,
            )
    n_left = len(left_arrays[0]) if left_arrays else 0
    merged = [
        np.concatenate([np.asarray(l), np.asarray(r)])
        for l, r in zip(left_arrays, right_arrays)
    ]
    codes, n_codes = factorize_keys(merged)
    return codes[:n_left], codes[n_left:], n_codes


# ------------------------------------------------------------------ #
# dictionary alignment (encoded string join keys)
# ------------------------------------------------------------------ #
def merge_dictionaries(
    left_dict: np.ndarray, right_dict: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Align two sorted dictionaries into one shared code space.

    Returns ``(merged, left_map, right_map)``: ``merged`` is the sorted
    union of both dictionaries, and ``left_map[c]`` / ``right_map[c]``
    translate each side's codes into merged codes (so
    ``left_map[left_codes]`` and ``right_map[right_codes]`` are directly
    comparable). When both sides share the same dictionary object the
    translation is the identity and no merge is performed — the common
    case for self-joins and subsets of one base table, whose
    :meth:`~repro.db.table.Table.take` shares dictionaries.
    """
    if left_dict is right_dict:
        identity = np.arange(len(left_dict), dtype=np.int64)
        return left_dict, identity, identity
    merged = sorted_unique(np.concatenate([left_dict, right_dict]))
    left_map = np.searchsorted(merged, left_dict).astype(np.int64)
    right_map = np.searchsorted(merged, right_dict).astype(np.int64)
    return merged, left_map, right_map


# ------------------------------------------------------------------ #
# stable argsort of bounded codes
# ------------------------------------------------------------------ #
#: Row counts below which numpy's int64 merge sort wins (measured, numpy
#: 2.4): one digit 64 rows 1.8 vs 1.9 µs, 128 rows 2.5 vs 2.0; two digits
#: 512 rows 8.5 vs 11.8 µs, 1000 rows 20.4 vs 16.5.
_ONE_DIGIT_MIN_ROWS = 96
_TWO_DIGIT_MIN_ROWS = 1024


def stable_argsort(codes: np.ndarray, n_codes: int) -> np.ndarray:
    """``np.argsort(codes, kind="stable")`` for codes in ``[0, n_codes)``.

    numpy's stable sort is a radix sort on 16-bit keys and a merge sort on
    int64, and a stable order is unique: sorting the codes as one uint16
    digit — two, least significant first, up to ``2**32`` — gives the same
    permutation several times sooner. Codes already in order (a key column
    in storage order) stay with the merge sort, which sees one run; one
    digit needs no such test, numpy's radix sort makes it itself.
    """
    n = len(codes)
    if n_codes <= 1 << 16:
        if n >= _ONE_DIGIT_MIN_ROWS:
            return np.argsort(codes.astype(np.uint16), kind="stable")
    elif (
        n_codes <= 1 << 32
        and n >= _TWO_DIGIT_MIN_ROWS
        and (codes[1:] < codes[:-1]).any()
    ):
        order = np.argsort(codes.astype(np.uint16), kind="stable")  # low 16 bits
        high = (codes[order] >> 16).astype(np.uint16)
        return order[np.argsort(high, kind="stable")]
    return np.argsort(codes, kind="stable")


# ------------------------------------------------------------------ #
# join
# ------------------------------------------------------------------ #
class JoinIndex(NamedTuple):
    """A build side's join state, from its factorized codes.

    Unique build codes (every primary-key build) keep ``position``: the
    build row holding each code, ``-1`` where none does. Any other build
    keeps the bucket layout: build rows stably sorted by code in
    ``order``, each code's run at ``code_starts`` of ``code_counts``
    rows. The fields of the other layout are ``None``.
    """

    position: Optional[np.ndarray] = None
    order: Optional[np.ndarray] = None
    code_starts: Optional[np.ndarray] = None
    code_counts: Optional[np.ndarray] = None


def build_join_index(
    build_codes: np.ndarray,
    n_codes: int,
    code_counts: Optional[np.ndarray] = None,
    unique: bool = False,
) -> JoinIndex:
    """Build-side hash-join state from factorized codes.

    Both layouts index by code directly, so probing is a gather (no
    hashing, no binary search). Unique codes (``unique``: known so, no
    count taken) get a direct-address ``position`` array; otherwise
    per-code offsets come from ``bincount`` (``code_counts`` when the
    caller has it) and a stable argsort keeps build rows ascending within
    a bucket.
    """
    if not unique and code_counts is None:
        code_counts = np.bincount(build_codes, minlength=n_codes)
    if unique or code_counts.max(initial=0) <= 1:
        position = np.full(n_codes, -1, dtype=np.int64)
        position[build_codes] = np.arange(len(build_codes), dtype=np.int64)
        return JoinIndex(position=position)
    code_starts = np.concatenate(([0], np.cumsum(code_counts[:-1])))
    order = stable_argsort(build_codes, n_codes)
    return JoinIndex(order=order, code_starts=code_starts, code_counts=code_counts)


def probe_factorized(
    probe_codes: np.ndarray, index: JoinIndex
) -> tuple[Optional[np.ndarray], np.ndarray]:
    """Probe a prebuilt join index with factorized codes.

    Pure function of its inputs and independent across probe rows. Unique
    build keys match at most once: one gather of ``position`` and a hit
    test; the identity (every probe row hits, as a foreign key that
    always resolves) comes back as ``None``. Otherwise match ``j`` sits at
    ``starts[probe] + (j - first_match[probe])``, two output-sized repeats.
    """
    if index.position is not None:
        build_idx = index.position[probe_codes]
        hit = build_idx >= 0
        if hit.all():
            return None, build_idx
        probe_idx = np.flatnonzero(hit)
        return probe_idx, build_idx[probe_idx]
    counts = index.code_counts[probe_codes]
    total = int(counts.sum())
    probe_idx = np.repeat(np.arange(len(probe_codes), dtype=np.int64), counts)
    if total == 0:
        return probe_idx, np.zeros(0, dtype=np.int64)
    first_match = np.cumsum(counts) - counts
    offsets = np.repeat(index.code_starts[probe_codes] - first_match, counts)
    build_idx = index.order[offsets + np.arange(total, dtype=np.int64)]
    return probe_idx, build_idx.astype(np.int64, copy=False)


def search_join(
    build_keys: np.ndarray, probe_keys: np.ndarray, unique: bool = False
) -> tuple[Optional[np.ndarray], np.ndarray]:
    """:func:`probe_factorized`'s output from one comparable key a side, by
    sorting the build keys and binary-searching the probe: its cost follows
    the rows, however wide the range the keys spread over.

    Build rows are stably sorted by key, so a key's run keeps them
    ascending. Unique build keys (``unique``: known so, not tested) take
    one search, a gather and a hit test (``None`` for the probe side when
    every probe row hits); otherwise each probe key's run ``[left,
    right)`` expands by the two-repeat form.
    """
    order = np.argsort(build_keys, kind="stable")
    keys = build_keys[order]
    if unique or not (keys[1:] == keys[:-1]).any():
        if len(keys) == 0:
            empty = np.zeros(0, dtype=np.int64)
            return (None if len(probe_keys) == 0 else empty), empty
        # Searching all but the last key lands every probe key on a slot.
        at = np.searchsorted(keys[:-1], probe_keys)
        build_idx = order[at]
        hit = keys[at] == probe_keys
        if hit.all():
            return None, build_idx
        probe_idx = np.flatnonzero(hit)
        return probe_idx, build_idx[probe_idx]
    starts = np.searchsorted(keys, probe_keys, side="left")
    counts = np.searchsorted(keys, probe_keys, side="right") - starts
    total = int(counts.sum())
    probe_idx = np.repeat(np.arange(len(probe_keys), dtype=np.int64), counts)
    if total == 0:
        return probe_idx, np.zeros(0, dtype=np.int64)
    first_match = np.cumsum(counts) - counts
    offsets = np.repeat(starts - first_match, counts)
    return probe_idx, order[offsets + np.arange(total, dtype=np.int64)]


def join_positions(
    build_keys: Sequence[np.ndarray],
    probe_keys: Sequence[np.ndarray],
    build_facts: Optional[KeyFacts] = None,
    probe_facts: Optional[KeyFacts] = None,
) -> tuple[Optional[np.ndarray], np.ndarray]:
    """Inner equi-join match positions, in bucket-dict emission order.

    Returns ``(probe_idx, build_idx)``: one entry per match, ordered by
    probe row, then ascending build row within each key group — exactly
    the order the per-row ``buckets.setdefault(...)`` implementation
    emits. ``probe_idx`` is ``None`` when it would be the identity (every
    probe row hits one unique build key): the probe side is kept as is.

    Keys spread over more than :data:`_CODES_PER_ROW` codes a row of both
    sides (an approximation set's few ids over its base table's range)
    join by :func:`search_join`; denser keys by the code-indexed
    :func:`build_join_index`, or, when the build codes repeat and the
    probe codes do not, by :func:`_join_on_unique_probe`. One integer key
    a side is never factorized: its values are searched as they are, or
    offset into the index.

    ``build_facts`` / ``probe_facts`` are a side's :class:`KeyFacts` when
    it joins on one key they hold for: the key's bounds are then read, not
    reduced, and a key known unique is not counted, sorted or checked for
    a repeat. Every path emits the same matches in the same order.
    """
    one_int = _one_int_key(build_keys, probe_keys, build_facts, probe_facts)
    if one_int is None:
        build, probe, n_codes = factorize_key_pair(build_keys, probe_keys)
    else:
        build, probe, low, n_codes = one_int
    build_unique = build_facts is not None and build_facts.unique
    if n_codes > _CODES_PER_ROW * (len(build) + len(probe)):
        return search_join(build, probe, build_unique)
    if one_int is not None:  # the span is dense: offset the values into it
        build = build.astype(np.int64, copy=False) - low
        probe = probe.astype(np.int64, copy=False) - low
    if build_unique:
        return probe_factorized(probe, build_join_index(build, n_codes, unique=True))
    code_counts = np.bincount(build, minlength=n_codes)
    if code_counts.max(initial=0) > 1:
        matches = _join_on_unique_probe(
            build, probe, n_codes, probe_facts is not None and probe_facts.unique
        )
        if matches is not None:
            return matches
    return probe_factorized(probe, build_join_index(build, n_codes, code_counts))


#: Probe codes :func:`_join_on_unique_probe` tests for a repeat before it
#: indexes the whole probe side: a many-to-many join shows one early.
_UNIQUE_TEST_ROWS = 256


def _join_on_unique_probe(
    build: np.ndarray, probe: np.ndarray, n_codes: int, unique: bool = False
) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """:func:`join_positions`' matches of build codes that repeat against
    unique probe codes (a foreign key after a filter against a primary
    key), or None when the probe codes repeat too (``unique``: known not
    to, and not tested).

    The direct-address index goes on the probe side and the build codes
    gather it: the build rows that hit come out ascending, so one stable
    sort by probe row restores the bucket order.
    """
    if not unique:
        head = np.sort(probe[:_UNIQUE_TEST_ROWS])
        if (head[1:] == head[:-1]).any():
            return None
    rows = np.arange(len(probe), dtype=np.int64)
    position = np.full(n_codes, -1, dtype=np.int64)
    position[probe] = rows
    if not unique and not np.array_equal(position[probe], rows):
        return None
    probe_of_build = position[build]
    build_idx = np.flatnonzero(probe_of_build >= 0)
    probe_idx = probe_of_build[build_idx]
    order = stable_argsort(probe_idx, len(probe))
    return probe_idx[order], build_idx[order]


# ------------------------------------------------------------------ #
# distinct
# ------------------------------------------------------------------ #
def distinct_positions(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Stable distinct: positions of first occurrences, in input order."""
    codes, n_codes = group_codes(arrays)
    if len(codes) == 0:
        return np.zeros(0, dtype=np.int64)
    order = stable_argsort(codes, n_codes)
    sorted_codes = codes[order]
    is_first = np.empty(len(codes), dtype=bool)
    is_first[0] = True
    np.not_equal(sorted_codes[1:], sorted_codes[:-1], out=is_first[1:])
    return np.sort(order[is_first])


# ------------------------------------------------------------------ #
# group-by
# ------------------------------------------------------------------ #
def group_rows(
    codes: np.ndarray, n_codes: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(groups, sizes, present)`` of rows coded in ``[0, n_codes)`` (a
    dictionary column's codes, or :func:`group_codes`'): each row's group
    in ``[0, G)``, each group's row count and code, in code order, so an
    aggregate reduces a column for every group with one ``bincount``.
    Codes sparser than :data:`_CODES_PER_ROW` a row (an approximation
    set's rows over its base table's dictionary) are renumbered by one
    sort, so the cost follows the rows, not ``n_codes``."""
    if n_codes > _CODES_PER_ROW * len(codes):
        present, groups = np.unique(codes, return_inverse=True)
        groups = groups.reshape(-1)
        return groups, np.bincount(groups, minlength=len(present)), present
    groups = codes.astype(np.intp, copy=False)  # what bincount counts in
    sizes = np.bincount(groups, minlength=n_codes)
    present = np.flatnonzero(sizes)
    if len(present) < n_codes:  # renumber around the codes no row holds
        number = np.zeros(n_codes, dtype=np.intp)
        number[present] = np.arange(len(present))
        groups, sizes = number[groups], sizes[present]
    return groups, sizes, present
