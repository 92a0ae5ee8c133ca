"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ApproximationSet, CoverageTracker, query_score
from tests.test_action_env import as_rows
from tests.test_baselines import LRUTupleCache
from tests.test_kernels import DictCoverageTracker
from tests.test_reward import coverage_from_rows, covered_counts, intern
from repro.db import Between, Comparison, InSet, conjoin, conjuncts
from repro.db.sampling import variational_subsample
from repro.embedding import TokenHasher
from repro.rl.nn import masked_log_softmax_, softmax
from repro.rl.rollout import discounted_returns


# ------------------------------------------------------------------ #
# Eq. 1 per-query term
# ------------------------------------------------------------------ #
@given(
    full=st.integers(min_value=0, max_value=10_000),
    subset=st.integers(min_value=0, max_value=10_000),
    frame=st.integers(min_value=1, max_value=500),
)
def test_query_score_bounded(full, subset, frame):
    value = query_score(full, min(subset, full), frame)
    assert 0.0 <= value <= 1.0


@given(
    full=st.integers(min_value=1, max_value=1000),
    frame=st.integers(min_value=1, max_value=100),
    a=st.integers(min_value=0, max_value=1000),
    b=st.integers(min_value=0, max_value=1000),
)
def test_query_score_monotone_in_coverage(full, frame, a, b):
    low, high = sorted((min(a, full), min(b, full)))
    assert query_score(full, low, frame) <= query_score(full, high, frame)


# ------------------------------------------------------------------ #
# coverage tracker: add/remove symmetry, on columnar coverages against
# the dict-of-lists reference
# ------------------------------------------------------------------ #
_keys = st.tuples(st.sampled_from(["t", "u"]), st.integers(0, 8))
# Rows as the executor produces them: one key per table of the query.
_requirements = st.sampled_from([("t",), ("u",), ("t", "u")]).flatmap(
    lambda tables: st.lists(
        st.tuples(*[st.integers(0, 8)] * len(tables)).map(
            lambda ids: tuple(zip(tables, ids))
        ),
        min_size=1,
        max_size=6,
    )
)


def _coverage(requirements):
    return coverage_from_rows("q", 1.0, len(requirements), requirements)


@given(requirements=_requirements, operations=st.lists(_keys, min_size=0, max_size=20))
@settings(max_examples=60)
def test_tracker_matches_recomputation(requirements, operations):
    """Incremental updates == rebuilding the tracker from scratch == the
    reference tracker over the coverage's tuple view."""
    coverage = _coverage(requirements)
    assert as_rows(coverage.tables, coverage.ids) == requirements
    incremental = CoverageTracker([coverage])
    reference = DictCoverageTracker([coverage])
    present: list = []
    for key in operations:
        incremental.add_keys(intern(incremental.index, [key]))
        reference.add_key(key)
        present.append(key)

    fresh = CoverageTracker([_coverage(requirements)])
    fresh.add_keys(intern(fresh.index, present))
    assert incremental.batch_score() == fresh.batch_score() == reference.batch_score()


# Several queries at once, each its own weight and Eq. 1 denominator.
_coverages = st.lists(
    st.tuples(_requirements, st.floats(0.1, 3.0), st.integers(1, 8)),
    min_size=1,
    max_size=4,
).map(lambda drawn: [
    coverage_from_rows(f"q{i}", weight, denominator, rows)
    for i, (rows, weight, denominator) in enumerate(drawn)
])


def _state(tracker):
    return tracker._missing.copy(), tracker._covered.copy(), tracker._present.copy()


@given(
    coverages=_coverages,
    before=st.lists(_keys, max_size=12),
    keys=st.lists(_keys, min_size=1, max_size=12),
)
@settings(max_examples=80)
def test_tracker_add_remove_roundtrip(coverages, before, keys):
    """Metamorphic: ``add_keys(K)`` then ``remove_keys(K)`` is the identity
    on ``_missing``, ``_covered`` and ``_present``, from any prior state
    (a batch is its distinct keys, one holder of each)."""
    tracker = CoverageTracker(coverages)
    reference = DictCoverageTracker(coverages)
    tracker.add_keys(intern(tracker.index, before))
    reference.add_keys(dict.fromkeys(before))
    expected = _state(tracker)
    tracker.add_keys(intern(tracker.index, keys))
    reference.add_keys(dict.fromkeys(keys))
    np.testing.assert_array_equal(covered_counts(tracker), reference.covered_counts())
    tracker.remove_keys(intern(tracker.index, keys))
    for got, want in zip(_state(tracker), expected):
        np.testing.assert_array_equal(got, want)


@given(
    coverages=_coverages,
    batches=st.lists(st.lists(_keys, max_size=8), min_size=1, max_size=5),
    data=st.data(),
)
@settings(max_examples=80)
def test_tracker_batch_score_never_falls_as_keys_are_added(coverages, batches, data):
    """Metamorphic: Eq. 1 is monotone in added tuples, over all queries
    and over any batch of them."""
    subset = data.draw(st.lists(
        st.integers(0, len(coverages) - 1), min_size=1, unique=True,
    ))
    tracker = CoverageTracker(coverages)
    scores = [(tracker.batch_score(), tracker.batch_score(subset))]
    for batch in batches:
        tracker.add_keys(intern(tracker.index, batch))
        scores.append((tracker.batch_score(), tracker.batch_score(subset)))
    for (low_all, low_subset), (high_all, high_subset) in zip(scores, scores[1:]):
        assert low_all <= high_all and low_subset <= high_subset
    assert all(0.0 <= score <= 1.0 for pair in scores for score in pair)


# ------------------------------------------------------------------ #
# approximation set
# ------------------------------------------------------------------ #
@given(keys=st.lists(_keys, min_size=0, max_size=30))
def test_approximation_set_size_counts_distinct(keys):
    approx = ApproximationSet.from_keys(keys)
    assert approx.total_size() == len(set(keys))
    for key in keys:
        assert key in approx


# ------------------------------------------------------------------ #
# predicates
# ------------------------------------------------------------------ #
@given(
    values=st.lists(st.integers(-100, 100), min_size=1, max_size=50),
    low=st.integers(-100, 100),
    high=st.integers(-100, 100),
)
def test_between_equals_two_comparisons(values, low, high):
    low, high = sorted((low, high))
    ctx = {"t.x": np.asarray(values, dtype=np.int64)}
    between = Between("t.x", low, high).evaluate(ctx)
    manual = (
        Comparison("t.x", ">=", low).evaluate(ctx)
        & Comparison("t.x", "<=", high).evaluate(ctx)
    )
    assert (between == manual).all()


@given(
    values=st.lists(st.sampled_from("abcde"), min_size=1, max_size=30),
    wanted=st.sets(st.sampled_from("abcde"), min_size=1, max_size=5),
)
def test_inset_equals_or_of_equalities(values, wanted):
    ctx = {"t.g": np.asarray(values, dtype=object)}
    in_mask = InSet("t.g", wanted).evaluate(ctx)
    manual = np.zeros(len(values), dtype=bool)
    for value in wanted:
        manual |= Comparison("t.g", "=", value).evaluate(ctx)
    assert (in_mask == manual).all()


@given(st.lists(st.integers(-5, 5), min_size=0, max_size=5))
def test_conjoin_conjuncts_roundtrip(values):
    parts = [Comparison("t.x", ">", v) for v in values]
    combined = conjoin(parts)
    assert len(conjuncts(combined)) == len(parts)


# ------------------------------------------------------------------ #
# sampling
# ------------------------------------------------------------------ #
@given(
    sizes=st.lists(st.integers(1, 40), min_size=1, max_size=6),
    target=st.integers(1, 100),
    seed=st.integers(0, 1000),
)
def test_variational_subsample_invariants(sizes, target, seed):
    keys = [f"s{i}" for i, n in enumerate(sizes) for _ in range(n)]
    rng = np.random.default_rng(seed)
    result = variational_subsample(keys, target, rng)
    # positions unique, within bounds; probabilities in (0, 1]
    assert len(set(result.positions.tolist())) == len(result.positions)
    assert (result.positions >= 0).all() and (result.positions < len(keys)).all()
    assert (result.inclusion_probability > 0).all()
    assert (result.inclusion_probability <= 1).all()
    if target < len(keys):
        # every stratum keeps at least one member
        sampled = {keys[p] for p in result.positions}
        assert sampled == set(keys)


# ------------------------------------------------------------------ #
# LRU cache (the reference CACH is checked against)
# ------------------------------------------------------------------ #
@given(
    capacity=st.integers(1, 10),
    accesses=st.lists(st.integers(0, 20), min_size=0, max_size=60),
)
def test_lru_never_exceeds_capacity(capacity, accesses):
    cache = LRUTupleCache(capacity)
    for item in accesses:
        cache.touch(("t", item))
    assert len(cache) <= capacity
    if accesses:
        assert ("t", accesses[-1]) in cache  # most recent always resident


# ------------------------------------------------------------------ #
# embeddings
# ------------------------------------------------------------------ #
@given(tokens=st.lists(st.text(min_size=1, max_size=8), min_size=1, max_size=10))
@settings(max_examples=50)
def test_embedding_normalized_and_deterministic(tokens):
    hasher = TokenHasher(dim=16)
    a = hasher.embed(tokens)
    b = TokenHasher(dim=16).embed(tokens)
    assert np.allclose(a, b)
    assert abs(np.linalg.norm(a) - 1.0) < 1e-9


@given(tokens=st.lists(st.text(min_size=1, max_size=8), min_size=1, max_size=10))
@settings(max_examples=50)
def test_embedding_order_invariant(tokens):
    hasher = TokenHasher(dim=16)
    assert np.allclose(hasher.embed(tokens), hasher.embed(list(reversed(tokens))))


# ------------------------------------------------------------------ #
# RL numerics
# ------------------------------------------------------------------ #
@given(logits=st.lists(st.floats(-50, 50), min_size=2, max_size=8))
def test_softmax_is_distribution(logits):
    p = softmax(np.asarray([logits]))
    assert abs(p.sum() - 1.0) < 1e-9
    assert (p >= 0).all()


@given(
    logits=st.lists(st.floats(-20, 20), min_size=3, max_size=8),
    seed=st.integers(0, 100),
)
def test_masked_softmax_zero_outside_mask(logits, seed):
    rng = np.random.default_rng(seed)
    mask = rng.random(len(logits)) < 0.5
    if not mask.any():
        mask[0] = True
    lp = masked_log_softmax_(np.asarray([logits]), mask[None, :])
    probs = np.exp(lp[0])
    assert probs[~mask].sum() == 0.0
    assert abs(probs[mask].sum() - 1.0) < 1e-9


@given(
    rewards=st.lists(st.floats(-5, 5), min_size=1, max_size=20),
    gamma=st.floats(0.0, 1.0),
)
def test_discounted_returns_recurrence(rewards, gamma):
    returns = discounted_returns(rewards, gamma)
    for t in range(len(rewards) - 1):
        assert abs(returns[t] - (rewards[t] + gamma * returns[t + 1])) < 1e-6
