"""Columnar provenance must reproduce the per-row pipeline exactly.

``provenance_ids`` / ``build_coverage`` / ``variational_subsample`` were
per-row Python loops; the loop versions live on here as the references the
vectorized ones are compared against — same rows, same order, same rng
draws — and a golden hash pins a whole seeded ``preprocess()`` run.
"""

import dataclasses
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro
from repro.core import ASQPConfig, build_coverage, preprocess
from repro.db import execute, kernels, sql, variational_subsample
from tests.test_action_env import as_rows

# ``repro.core.preprocess`` the attribute is the function of that name.
preprocess_module = sys.modules["repro.core.preprocess"]


def provenance_rows(db, query):
    """``provenance_ids`` as key tuples, one per distinct result row."""
    return as_rows(*preprocess_module.provenance_ids(db, query))


# ------------------------------------------------------------------ #
# references: the loops as they were before the columnar rewrite
# ------------------------------------------------------------------ #
def reference_provenance_rows(db, query):
    result = execute(db, query)
    tables = sorted(result.row_ids)
    arrays = [result.row_ids[t] for t in tables]
    seen, rows = set(), []
    for i in range(len(result)):
        requirement = tuple((tables[j], int(arrays[j][i])) for j in range(len(tables)))
        if requirement not in seen:
            seen.add(requirement)
            rows.append(requirement)
    return rows


def reference_capped_rows(db, query, cap, rng):
    rows = reference_provenance_rows(db, query)
    if len(rows) > cap:
        picks = rng.choice(len(rows), size=cap, replace=False)
        rows = [rows[p] for p in sorted(picks)]
    return rows


def reference_subsample(keys, target_size, rng):
    n = len(keys)
    if n == 0 or target_size <= 0:
        return [], []
    if target_size >= n:
        return list(range(n)), [1.0] * n
    strata = {}
    for position, key in enumerate(keys):
        strata.setdefault(key, []).append(position)
    weights = {key: np.sqrt(len(members)) for key, members in strata.items()}
    total_weight = sum(weights.values())
    positions, probabilities = [], []
    for key, members in strata.items():
        quota = max(
            min(1, len(members)), int(round(target_size * weights[key] / total_weight))
        )
        quota = min(quota, len(members))
        picked = rng.choice(np.asarray(members, dtype=np.int64), size=quota, replace=False)
        positions.extend(int(p) for p in picked)
        probabilities.extend([quota / len(members)] * quota)
    order = np.argsort(positions)
    return [positions[i] for i in order], [probabilities[i] for i in order]


# ------------------------------------------------------------------ #
EXTRA_SQL = {
    "tiny_imdb": [
        # duplicate-producing projections, multi-way joins, empty results
        "SELECT DISTINCT title.production_year FROM title, cast_info "
        "WHERE title.id = cast_info.movie_id",
        "SELECT company.country_code FROM title, movie_companies, company "
        "WHERE title.id = movie_companies.movie_id "
        "AND movie_companies.company_id = company.id LIMIT 40",
        "SELECT * FROM title WHERE title.production_year > 9999",
    ],
    "tiny_mas": [
        "SELECT DISTINCT venue.area FROM publication, venue "
        "WHERE publication.venue_id = venue.id",
        "SELECT * FROM publication, venue WHERE publication.venue_id = venue.id "
        "AND publication.year > 9999",
    ],
    "tiny_flights": [
        "SELECT DISTINCT flights.origin FROM flights, carriers "
        "WHERE flights.carrier = carriers.code",
        "SELECT * FROM flights WHERE flights.distance < 0",
    ],
}


@pytest.mark.parametrize("bundle_name", sorted(EXTRA_SQL))
def test_provenance_rows_match_per_row_reference(bundle_name, request):
    bundle = request.getfixturevalue(bundle_name)
    queries = list(bundle.workload.spj_only().queries)
    queries += [sql(text) for text in EXTRA_SQL[bundle_name]]
    assert max(len(q.tables) for q in queries) >= 2
    sizes, coverages = [], []
    for query in queries:
        rows = provenance_rows(bundle.db, query)
        assert rows == reference_provenance_rows(bundle.db, query), query.to_sql()
        assert all(type(row_id) is int for row in rows for _, row_id in row)
        sizes.append(len(rows))
        # The columnar coverage iterates to exactly those tuples.
        coverages.append(build_coverage(bundle.db, query, 1.0, frame_size=10))
        assert as_rows(coverages[-1].tables, coverages[-1].ids) == rows, query.to_sql()
    assert 0 in sizes and max(sizes) > 20
    # ... and its len() reads the matrix: no tuple is built.
    largest = coverages[sizes.index(max(sizes))]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert len(largest.requirements) == max(sizes)
        grown = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert grown < 256, grown  # the view object; 20+ row tuples are kilobytes


#: Single-table, join, cross-join and three-way queries of ``mini_db``.
MINI_SQL = [
    "SELECT * FROM movies",
    "SELECT * FROM movies, cast_info WHERE movies.id = cast_info.movie_id",
    "SELECT * FROM movies, cast_info WHERE movies.year > 2000",
    "SELECT * FROM cast_info WHERE cast_info.actor = 'ann'",
]


@st.composite
def _spj_variant(draw, db, queries):
    """One of ``queries`` under a drawn projection, ``DISTINCT``,
    ``ORDER BY`` and ``LIMIT``."""
    query = draw(st.sampled_from(queries))
    refs = [f"{t}.{c}" for t in query.tables for c in db.table(t).schema.column_names]
    projection = tuple(draw(st.lists(st.sampled_from(refs), max_size=2, unique=True)))
    return dataclasses.replace(
        query,
        projection=projection,
        distinct=draw(st.booleans()),
        order_by=draw(st.one_of(st.none(), st.sampled_from(refs))),
        descending=draw(st.booleans()),
        limit=draw(st.one_of(st.none(), st.integers(0, 40))),
    )


def _assert_distinct_provenance(db, query):
    """The executor's row-id tuples are duplicate-free, and
    ``provenance_ids`` is every one of them, in result order."""
    result = execute(db, query)
    tables, ids = preprocess_module.provenance_ids(db, query)
    assert tables == sorted(result.row_ids)
    np.testing.assert_array_equal(ids, np.column_stack([result.row_ids[t] for t in tables]))
    assert len(np.unique(ids, axis=0)) == len(ids) == len(result), query.to_sql()


@given(data=st.data())
@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],  # read-only
)
def test_executed_provenance_is_duplicate_free(data, mini_db, tiny_imdb):
    """An SPJ result names each table once and each of a table's row ids
    once, so no two result rows share their base rows — over the full
    database, and over an approximation set's sub-database."""
    mini = [sql(text) for text in MINI_SQL]
    _assert_distinct_provenance(mini_db, data.draw(_spj_variant(mini_db, mini)))
    imdb = tiny_imdb.db
    base = data.draw(st.sampled_from(list(tiny_imdb.workload.spj_only().queries)))
    _assert_distinct_provenance(imdb, data.draw(_spj_variant(imdb, [base])))
    # The approximation set: some of the base query's joinable tuples.
    tables, ids = preprocess_module.provenance_ids(imdb, base)
    rows = st.sets(st.integers(0, len(ids) - 1), max_size=40) if len(ids) else st.just(set())
    picked = sorted(data.draw(rows))
    approx = imdb.subset({t: ids[picked, j] for j, t in enumerate(tables)})
    _assert_distinct_provenance(approx, data.draw(_spj_variant(approx, [base])))


def reference_rows_among(ids, known):
    """``_rows_among`` as it was: both sides' columns factorized together,
    then ``np.isin`` of the codes."""
    codes, known_codes, _ = kernels.factorize_key_pair(list(ids.T), list(known.T))
    return np.isin(codes, known_codes)


#: Row ids of one column: a table's dense ids, or spread so far that two
#: or more columns' spans multiply past ``2**62`` (the factorized path).
_ROW_IDS = [st.integers(0, 50), st.integers(0, 2**40), st.integers(-(2**62), 2**62)]


@st.composite
def _id_matrices(draw):
    """``(ids, known)`` over the same tables; some known rows are ids rows."""
    n_tables = draw(st.integers(1, 4))
    row = st.tuples(*(draw(st.sampled_from(_ROW_IDS)) for _ in range(n_tables)))
    ids = draw(st.lists(row, max_size=30))
    known = draw(st.lists(row, max_size=30))
    if ids:
        known += draw(st.lists(st.sampled_from(ids), max_size=10))
    matrix = lambda rows: np.asarray(rows, dtype=np.int64).reshape(-1, n_tables)
    return matrix(ids), matrix(draw(st.permutations(known)))


@given(pair=_id_matrices())
@example(pair=(np.asarray([[0, 2**40], [5, 0]]), np.asarray([[5, 0], [2**40, 2**40]])))
@example(pair=(np.asarray([[-(2**62)], [2**62]]), np.asarray([[2**62]])))
@settings(max_examples=300, deadline=None)
def test_rows_among_matches_factorized_reference(pair):
    ids, known = pair
    got = preprocess_module._rows_among(ids, known)
    assert got.dtype == bool
    np.testing.assert_array_equal(got, reference_rows_among(ids, known))


@pytest.mark.parametrize("seed", range(5))
def test_build_coverage_cap_draws_the_same_rows(monkeypatch, tiny_imdb, seed):
    monkeypatch.setattr(preprocess_module, "MAX_REQUIREMENT_ROWS", 7)
    for query in tiny_imdb.workload.spj_only().queries:
        coverage = build_coverage(
            tiny_imdb.db, query, 0.5, frame_size=10, rng=np.random.default_rng(seed)
        )
        expected = reference_capped_rows(
            tiny_imdb.db, query, 7, np.random.default_rng(seed)
        )
        assert as_rows(coverage.tables, coverage.ids) == expected
        full = len(reference_provenance_rows(tiny_imdb.db, query))
        assert coverage.denominator == min(10, full)
        assert len(coverage.requirements) == min(7, full)


@pytest.mark.parametrize("seed", range(20))
def test_subsample_int_array_matches_list_and_reference(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 400))
    keys = rng.integers(0, int(rng.integers(1, 12)), size=n) * 2 + (seed % 2)
    target = int(rng.integers(0, n + 5))
    from_array = variational_subsample(keys, target, np.random.default_rng(seed))
    from_list = variational_subsample(keys.tolist(), target, np.random.default_rng(seed))
    positions, probabilities = reference_subsample(
        keys.tolist(), target, np.random.default_rng(seed)
    )
    for result in (from_array, from_list):
        assert result.positions.dtype == np.int64
        assert result.positions.tolist() == positions
        assert result.inclusion_probability.tolist() == probabilities
    # ... and both leave the generator in the same state.
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    variational_subsample(keys, target, a)
    reference_subsample(keys.tolist(), target, b)
    assert a.integers(0, 2**31) == b.integers(0, 2**31)


# ------------------------------------------------------------------ #
GOLDEN_SCRIPT = """
import hashlib
from repro.core import ASQPConfig, preprocess
from repro.datasets import load_imdb
bundle = load_imdb(scale=0.1, n_queries=20, n_aggregate_queries=8)
config = ASQPConfig(memory_budget=60, action_space_target=40,
                    n_query_representatives=5, exact_row_share=0.7, seed=3)
prep = preprocess(bundle.db, bundle.workload, config)
s = prep.action_space
keys = list(zip([s.tables[c] for c in s.key_tables], s.key_rows.tolist()))
o = s.offsets.tolist()
keys = [(tuple(keys[lo:hi]), q) for lo, hi, q in zip(o, o[1:], s.sources.tolist())]
print(hashlib.sha1(repr(keys).encode()).hexdigest())
"""

#: SHA-1 of the seeded action space: exact rows are added in id-matrix
#: order, so it is one value whatever the hash seed.
GOLDEN_ACTION_KEYS = "1f8cedad668e22c77cb84851b5d4d35e11866b12"


@pytest.mark.parametrize("hash_seed", ["0", "1", "2"])
def test_preprocess_action_space_golden(hash_seed):
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", GOLDEN_SCRIPT],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert out.stdout.strip() == GOLDEN_ACTION_KEYS


TRAINING_GOLDEN_SCRIPT = """
import hashlib
from repro.core import ASQPConfig, ASQPTrainer
from repro.datasets import load_imdb
from repro.db import sql
bundle = load_imdb(scale=0.1, n_queries=20, n_aggregate_queries=8)
config = ASQPConfig(memory_budget=80, n_iterations=3, n_actors=3,
                    episodes_per_actor=2, action_space_target=50,
                    n_query_representatives=6, n_candidate_rollouts=2,
                    exact_row_share=0.7, query_batch_size=8,
                    early_stopping_patience=8, learning_rate=1e-3,
                    fine_tune_iterations=2, seed=7)
model = ASQPTrainer(bundle.db, bundle.workload, config).train()
model.fine_tune([sql("SELECT * FROM person WHERE person.gender = 'f'")])
keys = sorted(model.approximation_set().keys())
rewards = [round(r.mean_episode_reward, 10) for r in model.history]
print(hashlib.sha1(repr(keys).encode()).hexdigest())
print(hashlib.sha1(repr(rewards).encode()).hexdigest())
"""

#: Every sampled action, reward and early-stopping decision of a seeded
#: train + fine-tune, and the set finally selected; recorded when exact
#: rows stopped being added in ``set`` iteration order.
GOLDEN_TRAINING = [
    "55dbbffea709526ce1cca33902949bd49f5a55f9",  # approximation-set keys
    "c49b5ff614583a9b1e0a2e7db114998626af9ee1",  # mean_episode_reward history
]


def test_training_trajectory_golden():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", TRAINING_GOLDEN_SCRIPT],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert out.stdout.split() == GOLDEN_TRAINING


def test_preprocess_work_is_inside_a_timed_stage(tiny_imdb):
    """The benchmark cross-checks the stage sum against its own span."""
    config = ASQPConfig(
        memory_budget=60, action_space_target=40, n_query_representatives=5, seed=3
    )
    start = preprocess_module.perf_counter()
    prep = preprocess(tiny_imdb.db, tiny_imdb.workload, config)
    total = preprocess_module.perf_counter() - start
    assert set(prep.timings) == {
        "stats", "query_preprocessing", "coverage", "execute_relaxed",
        "build_action_space",
    }
    assert sum(prep.timings.values()) == pytest.approx(total, rel=0.1)
