"""Tests for the subset-selector baselines (RAN..VAE), with the references
CACH, QUIK, GRE and SKY are checked against: an LRU cache simulation, the
per-tuple QUIK walk, GRE's rescan and the pairwise skyline loop."""

import functools
import os
import subprocess
import sys
from collections import OrderedDict
from typing import Iterable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.baselines import (
    baseline_names,
    make_baseline,
    plan_signature,
    skyline_layers,
)
from repro.baselines.base import SubsetSelector
from repro.baselines.caching import cached_set
from repro.baselines.greedy import greedy_set
from repro.baselines.quickr import sample_catalog
from repro.baselines import skyline as skyline_module
from repro.baselines.skyline import _dominance_matrix_features
from repro.baselines.top_queried import most_queried
from repro.core import ApproximationSet, CoverageTracker, QueryCoverage, TupleKey, score
from repro.datasets import Workload, load_imdb, load_mas
from repro.db import execute, sql
from tests.test_action_env import as_rows


class LRUTupleCache:
    """Fixed-capacity LRU cache of ``(table, row_id)`` tuple keys: the
    buffer-cache simulation CACH's closed form must agree with."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"cache capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[TupleKey, None]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: TupleKey) -> bool:
        return key in self._entries

    def touch(self, key: TupleKey) -> bool:
        """Access a tuple: insert or refresh it. Returns True on a hit."""
        hit = key in self._entries
        if hit:
            self._entries.move_to_end(key)
            self.hits += 1
        else:
            self.misses += 1
            self._entries[key] = None
            if len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
        return hit

    def touch_many(self, keys: Iterable[TupleKey]) -> int:
        """Access a batch of tuples (deduplicated); returns the hit count."""
        hits = 0
        seen: set[TupleKey] = set()
        for key in keys:
            if key in seen:
                continue
            seen.add(key)
            if self.touch(key):
                hits += 1
        return hits

    def contents(self) -> dict[str, list[int]]:
        """Current cache contents grouped by table (row ids sorted)."""
        grouped: dict[str, list[int]] = {}
        for table_name, row_id in self._entries:
            grouped.setdefault(table_name, []).append(row_id)
        return {table: sorted(ids) for table, ids in grouped.items()}

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def reference_sample_catalog(groups, k, rng):
    """QUIK's catalog fill over requirement tuples, one key at a time."""
    approx = ApproximationSet()
    slice_budget = max(1, k // max(1, len(groups)))
    for group in groups:
        rows: list[tuple] = []
        seen = set()
        for coverage in group:
            for requirement in as_rows(coverage.tables, coverage.ids):
                if requirement not in seen:
                    seen.add(requirement)
                    rows.append(requirement)
        if not rows:
            continue
        order = rng.permutation(len(rows))
        slice_used = 0
        for row_index in order:
            requirement = rows[row_index]
            new_keys = [key for key in requirement if key not in approx]
            if not new_keys:
                continue
            if approx.total_size() + len(new_keys) > k:
                break
            approx.add_keys(new_keys)
            slice_used += len(new_keys)
            if slice_used >= slice_budget:
                break
        if approx.total_size() >= k:
            break
    return approx


def reference_greedy(coverages, k):
    """GRE's rescan: every pick probes each remaining distinct requirement
    row in ascending first-appearance order and keeps the first with the
    largest Eq. 1 gain per new key whose new keys fit in ``k``."""
    tracker = CoverageTracker(coverages)
    units = _distinct_requirements(coverages)
    approx = ApproximationSet()
    remaining = list(range(len(units)))
    current_score = tracker.batch_score()
    while approx.total_size() < k and remaining:
        best_unit, best_gain = -1, -np.inf
        for unit_index in remaining:
            new_keys = [key for key in units[unit_index] if key not in approx]
            if approx.total_size() + len(new_keys) > k:
                continue
            gain = tracker.probe_add_score(units[unit_index]) - current_score
            normalized = gain / max(1, len(new_keys))
            if normalized > best_gain:
                best_gain = normalized
                best_unit = unit_index
        if best_unit < 0:
            break
        approx.add_keys(units[best_unit])
        tracker.add_keys(units[best_unit])
        current_score = tracker.batch_score()
        remaining.remove(best_unit)
    return approx


def _distinct_requirements(coverages):
    units, seen = [], set()
    for coverage in coverages:
        for requirement in as_rows(coverage.tables, coverage.ids):
            if requirement not in seen:
                seen.add(requirement)
                units.append(requirement)
    return units


def assert_picks_within_rounding(coverages, k, picks):
    """Each pick's reference gain per new key is within 1e-12 of the
    largest at that step, and after the last pick no row's new keys fit:
    GRE and the rescan differ only on ties within float rounding."""
    rows = [row for coverage in coverages for row in as_rows(coverage.tables, coverage.ids)]
    units = _distinct_requirements(coverages)
    tracker = CoverageTracker(coverages)
    approx = ApproximationSet()
    for pick in [*picks.tolist(), None]:
        current_score = tracker.batch_score()
        gains = {}
        for unit in units:
            new_keys = [key for key in unit if key not in approx]
            if new_keys and approx.total_size() + len(new_keys) <= k:
                gains[unit] = (tracker.probe_add_score(unit) - current_score) / len(new_keys)
        if pick is None:
            assert not gains
            return
        assert gains[rows[pick]] >= max(gains.values()) - 1e-12
        approx.add_keys(rows[pick])
        tracker.add_keys(rows[pick])


def assert_greedy_matches_the_rescan(coverages, k):
    ran = greedy_set(coverages, k)
    assert ran.completed and ran.approximation.total_size() <= k
    if ran.approximation.rows != reference_greedy(coverages, k).rows:
        assert_picks_within_rounding(coverages, k, ran.picks)


@pytest.fixture(scope="module")
def split(tiny_flights):
    train, test = tiny_flights.workload.split(0.3, np.random.default_rng(5))
    return train, test


K = 80
F = 50


def _run(name, bundle, train, **kwargs):
    selector = make_baseline(name)
    rng = np.random.default_rng(42)
    return selector, selector.select(bundle.db, train, K, F, rng, **kwargs)


class TestRegistry:
    def test_all_names_constructible(self):
        for name in baseline_names():
            assert make_baseline(name).name == name

    def test_case_insensitive(self):
        assert make_baseline("ran").name == "RAN"

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown baseline"):
            make_baseline("NOPE")


class TestBudgetInvariant:
    @pytest.mark.parametrize("k", [0, 1, 10])
    @pytest.mark.parametrize("name", baseline_names())
    def test_degenerate_budgets(self, name, k, tiny_flights, split):
        train, _ = split
        selector = make_baseline(name)
        result = selector.select(
            tiny_flights.db, train, k, F, np.random.default_rng(42), time_budget=0.2
        )
        if result.approximation is None:  # VAE: synthetic rows count
            assert result.database.total_rows() <= k
            regenerated = selector.regenerate(tiny_flights.db, k, np.random.default_rng(9))
            assert regenerated.total_rows() <= k
        else:
            assert result.approximation.total_size() <= k
        if name == "GRE":  # a few picks, far inside the budget
            assert result.completed

    @pytest.mark.parametrize("name", ["RAN", "TOP", "CACH", "QRD", "VERD", "QUIK"])
    def test_subset_within_budget(self, name, tiny_flights, split):
        train, _ = split
        _, result = _run(name, tiny_flights, train)
        assert result.approximation is not None
        assert 0 < result.approximation.total_size() <= K

    @pytest.mark.parametrize("name", ["BRT", "GRE"])
    def test_search_methods_within_budget(self, name, tiny_flights, split):
        train, _ = split
        _, result = _run(name, tiny_flights, train, time_budget=1.0)
        assert result.approximation.total_size() <= K

    @pytest.mark.parametrize("name", ["RAN", "TOP", "CACH", "QRD", "VERD", "QUIK"])
    def test_subset_rows_come_from_database(self, name, tiny_flights, split):
        train, _ = split
        _, result = _run(name, tiny_flights, train)
        for table_name, ids in result.approximation.rows.items():
            base_ids = set(tiny_flights.db.table(table_name).row_ids.tolist())
            assert ids <= base_ids


class TestQualityOrdering:
    def test_workload_aware_beats_random(self, tiny_flights, split):
        """TOP/QUIK/CACH know the workload; RAN does not."""
        train, test = split
        scores = {}
        for name in ("RAN", "TOP", "QUIK", "CACH"):
            _, result = _run(name, tiny_flights, train)
            scores[name] = score(tiny_flights.db, result.database, test, F)
        best_aware = max(scores["TOP"], scores["QUIK"], scores["CACH"])
        assert best_aware >= scores["RAN"]

    def test_greedy_beats_random_given_time(self, tiny_flights, split):
        train, test = split
        _, greedy_result = _run("GRE", tiny_flights, train, time_budget=20.0)
        _, random_result = _run("RAN", tiny_flights, train)
        g = score(tiny_flights.db, greedy_result.database, test, F)
        r = score(tiny_flights.db, random_result.database, test, F)
        assert g >= r


class TestTimeBudgets:
    def test_brt_respects_budget(self, tiny_flights, split):
        import time

        train, _ = split
        # Measuring a real wall-clock budget is the point of this test.
        start = time.perf_counter()
        _, result = _run("BRT", tiny_flights, train, time_budget=0.5)
        assert time.perf_counter() - start < 5.0
        assert not result.completed  # BRT always runs out, as in the paper

    def test_gre_flags_incomplete_on_tiny_budget(self, tiny_flights, split):
        train, _ = split
        _, result = _run("GRE", tiny_flights, train, time_budget=0.001)
        assert not result.completed

    def test_gre_completes_empty_when_no_row_fits(self, tiny_flights, split):
        train, _ = split
        joins = Workload([q for q in train.spj_only().queries if len(q.tables) == 2])
        assert len(joins)
        result = make_baseline("GRE").select(
            tiny_flights.db, joins, 1, F, np.random.default_rng(42)
        )
        assert result.completed
        assert result.approximation.total_size() == 0


# ------------------------------------------------------------------ #
# CACH, QUIK, TOP and GRE against their per-tuple references
# ------------------------------------------------------------------ #
_TABLE_SETS = [("t",), ("u",), ("t", "u")]


def _coverage_over(tables):
    """Coverages of 0-6 rows over one table set, ids in 0..8."""
    return st.lists(
        st.lists(st.integers(0, 8), min_size=len(tables), max_size=len(tables)),
        max_size=6,
    ).map(lambda ids: QueryCoverage(
        "q", 1.0, max(1, len(ids)), tables,
        np.asarray(ids, dtype=np.int64).reshape(len(ids), len(tables)),
    ))


_replays = st.lists(st.sampled_from(_TABLE_SETS).flatmap(_coverage_over), max_size=5)
# One group per plan signature; a signature fixes the tables joined.
_catalogs = st.lists(
    st.sampled_from(_TABLE_SETS).flatmap(
        lambda tables: st.lists(_coverage_over(tables), min_size=1, max_size=3)
    ),
    min_size=1,
    max_size=4,
)


def _n_keys(coverages):
    return len({key for c in coverages for row in as_rows(c.tables, c.ids) for key in row})


@given(coverages=_replays, seed=st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_cached_set_is_the_lru_cache_after_the_replay(coverages, seed):
    assert cached_set(coverages, 0, np.random.default_rng(seed)).total_size() == 0
    for capacity in range(1, _n_keys(coverages) + 2):
        cache = LRUTupleCache(capacity)
        for q in np.random.default_rng(seed).permutation(len(coverages)):
            for requirement in as_rows(coverages[q].tables, coverages[q].ids):
                cache.touch_many(requirement)
        picked = cached_set(coverages, capacity, np.random.default_rng(seed))
        assert picked.rows == {t: set(ids) for t, ids in cache.contents().items()}


@given(coverages=_replays, seed=st.integers(0, 2**16), data=st.data())
@settings(max_examples=60, deadline=None)
def test_most_queried_takes_the_keys_of_the_most_queries(coverages, seed, data):
    queries_of: dict = {}
    for q, coverage in enumerate(coverages):
        for requirement in as_rows(coverage.tables, coverage.ids):
            for key in requirement:
                queries_of.setdefault(key, set()).add(q)
    k = data.draw(st.integers(0, len(queries_of) + 1))
    picked = set(most_queried(coverages, k, np.random.default_rng(seed)).keys())
    assert len(picked) == min(k, len(queries_of))
    left_out = [len(queries_of[key]) for key in queries_of if key not in picked]
    assert all(len(queries_of[key]) >= max(left_out, default=0) for key in picked)


@given(coverages=_replays)
@settings(max_examples=60, deadline=None)
def test_greedy_set_is_the_rescan(coverages):
    for k in range(0, _n_keys(coverages) + 2):
        assert_greedy_matches_the_rescan(coverages, k)


@functools.lru_cache(maxsize=None)
def _scaled_coverages(dataset, split_index):
    bundle = {"imdb": load_imdb, "mas": load_mas}[dataset](scale=0.05, n_queries=30)
    train, _ = bundle.workload.split(0.3, np.random.default_rng(1000 * split_index))
    return SubsetSelector.workload_coverages(
        bundle.db, train, 20, np.random.default_rng(split_index)
    )


@pytest.mark.parametrize("k", [10, 50, 100, 200, 400])
@pytest.mark.parametrize("split_index", [0, 1])
@pytest.mark.parametrize("dataset", ["imdb", "mas"])
def test_greedy_set_is_the_rescan_on_generated_data(dataset, split_index, k):
    assert_greedy_matches_the_rescan(_scaled_coverages(dataset, split_index), k)


@given(groups=_catalogs, seed=st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_sample_catalog_matches_the_tuple_walk(groups, seed):
    n_keys = _n_keys([c for group in groups for c in group])
    for k in range(0, n_keys + 2):
        picked = sample_catalog(groups, k, np.random.default_rng(seed))
        expected = reference_sample_catalog(groups, k, np.random.default_rng(seed))
        assert picked.rows == expected.rows
        assert picked.total_size() <= k


# ------------------------------------------------------------------ #
# every selection is a function of its inputs and seed alone
# ------------------------------------------------------------------ #
HASH_SEED_SCRIPT = """
import hashlib
import numpy as np
from repro.baselines import baseline_names, make_baseline
from repro.datasets import load_imdb, load_mas
for load in (load_imdb, load_mas):
    bundle = load(scale=0.05, n_queries=30)
    for name in baseline_names():
        if name == "BRT":  # it stops on the wall clock
            continue
        result = make_baseline(name).select(  # a budget GRE cannot reach
            bundle.db, bundle.workload, 100, 20, np.random.default_rng(0),
            time_budget=3600.0,
        )
        if result.approximation is None:  # VAE: the synthetic tables
            picked = [
                (table.name, [table.column(c).tolist() for c in table.schema.column_names])
                for table in result.database
            ]
        else:
            picked = result.approximation.keys()
        digest = hashlib.sha1(repr(picked).encode()).hexdigest()
        print(load.__name__, name, digest)
"""


def test_selections_do_not_depend_on_the_hash_seed():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    children = [
        subprocess.Popen(
            [sys.executable, "-c", HASH_SEED_SCRIPT],
            env={**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src},
            stdout=subprocess.PIPE, text=True,
        )
        for hash_seed in ("0", "1")
    ]
    outputs = [child.communicate(timeout=120)[0] for child in children]
    assert [child.returncode for child in children] == [0, 0]
    first, second = (output.splitlines() for output in outputs)
    assert len(first) == 2 * (len(baseline_names()) - 1)
    assert first == second


class TestVerdict:
    def test_sampling_fractions_recorded(self, tiny_flights, split):
        train, _ = split
        _, result = _run("VERD", tiny_flights, train)
        fractions = result.extra["sampling_fractions"]
        assert fractions
        for fraction in fractions.values():
            assert 0 < fraction <= 1


class TestQuickR:
    def test_plan_signature_groups_same_shape(self):
        a = sql("SELECT * FROM t WHERE t.x > 1")
        b = sql("SELECT * FROM t WHERE t.x > 99")
        c = sql("SELECT * FROM t WHERE t.y > 1")
        assert plan_signature(a) == plan_signature(b)
        assert plan_signature(a) != plan_signature(c)

    def test_catalog_size_reported(self, tiny_flights, split):
        train, _ = split
        _, result = _run("QUIK", tiny_flights, train)
        assert result.extra["n_signatures"] >= 1


def reference_skyline_layers(features: np.ndarray, max_rows: int) -> list[int]:
    """Onion peeling by comparing every pair of remaining rows: the loop
    ``skyline_layers`` replaced."""
    remaining = list(range(len(features)))
    selected: list[int] = []
    while remaining and len(selected) < max_rows:
        layer: list[int] = []
        for i in remaining:
            dominated = False
            for j in remaining:
                if i == j:
                    continue
                if np.all(features[j] >= features[i]) and np.any(
                    features[j] > features[i]
                ):
                    dominated = True
                    break
            if not dominated:
                layer.append(i)
        if not layer:  # all ties; take what's left
            layer = list(remaining)
        selected.extend(layer)
        peeled = set(layer)
        remaining = [i for i in remaining if i not in peeled]
    return selected[:max_rows]


#: Rows per table pool of the differential test (the pairwise reference is
#: quadratic per layer in Python).
REFERENCE_POOL = 120


class TestSkyline:
    @pytest.mark.parametrize("dataset", ["imdb", "mas", "flights"])
    def test_layers_equal_the_pairwise_reference(self, dataset, request):
        bundle = request.getfixturevalue(f"tiny_{dataset}")
        rng = np.random.default_rng(5)
        for table in bundle.db:
            if len(table) > REFERENCE_POOL:
                table = table.take(
                    np.sort(rng.choice(len(table), size=REFERENCE_POOL, replace=False))
                )
            features = _dominance_matrix_features(table, rng)
            # The loop stops after the layer that reaches max_rows, so a
            # smaller budget's order is a prefix of the whole peel's.
            whole = reference_skyline_layers(features, len(features))
            for k in (1, 10, 80, 1000):
                assert skyline_layers(features, k) == whole[:k], (table.name, k)

    @pytest.mark.parametrize("block", [7, skyline_module.DOMINANCE_BLOCK])
    @pytest.mark.parametrize("seed", range(4))
    def test_layers_with_ties_and_nans_equal_the_pairwise_reference(
        self, seed, block, monkeypatch
    ):
        monkeypatch.setattr(skyline_module, "DOMINANCE_BLOCK", block)
        rng = np.random.default_rng(seed)
        features = rng.integers(0, 4, size=(150, 3)).astype(np.float64)
        features[rng.random(features.shape) < 0.05] = np.nan
        whole = reference_skyline_layers(features, len(features))
        for k in (1, 10, 80, 1000):
            assert skyline_layers(features, k) == whole[:k]

    def test_layers_maximal_first(self):
        features = np.asarray([
            [1.0, 1.0],
            [2.0, 2.0],   # dominates everything
            [0.5, 3.0],   # incomparable with [2,2]? no: 0.5<2 but 3>2 -> layer 1
            [0.4, 0.4],
        ])
        order = skyline_layers(features, max_rows=4)
        first_layer = set(order[:2])
        assert first_layer == {1, 2}
        assert order[-1] == 3

    def test_max_rows_respected(self):
        features = np.random.default_rng(0).standard_normal((20, 3))
        assert len(skyline_layers(features, max_rows=7)) == 7

    def test_runs_on_flights(self, tiny_flights, split):
        train, _ = split
        _, result = _run("SKY", tiny_flights, train)
        assert result.approximation.total_size() <= K


class TestVAE:
    def test_produces_synthetic_database(self, tiny_flights, split):
        train, _ = split
        selector, result = _run("VAE", tiny_flights, train)
        assert result.approximation is None
        assert result.extra.get("generative")
        # Synthetic database is queryable and within the budget.
        total = result.database.total_rows()
        assert 0 < total <= K

    def test_synthetic_tuples_score_near_zero(self, tiny_flights, split):
        train, test = split
        _, result = _run("VAE", tiny_flights, train)
        value = score(tiny_flights.db, result.database, test, F)
        assert value < 0.1  # the paper's core finding about generative AQP

    def test_regenerate_requires_select(self, tiny_flights):
        from repro.baselines import VAEBaseline

        vae = VAEBaseline()
        with pytest.raises(RuntimeError):
            vae.regenerate(tiny_flights.db, K, np.random.default_rng(0))

    def test_regenerate_fresh_database(self, tiny_flights, split):
        train, _ = split
        selector, _ = _run("VAE", tiny_flights, train)
        regenerated = selector.regenerate(tiny_flights.db, K, np.random.default_rng(9))
        assert regenerated.total_rows() > 0
