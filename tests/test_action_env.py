"""Unit tests for repro.core.action_space and repro.core.environment.

An action space is held as row-id arrays; the helpers here build one from
``((table, row id), ...)`` key tuples and read it back, and
:func:`reference_group_rows_into_actions` is the tuple grouping the
vectorised :func:`group_rows_into_actions` replaced, kept as its reference.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ASQPConfig,
    ActionSpace,
    GSLEnvironment,
    group_rows_into_actions,
)
from repro.core.reward import CoverageIndex, CoverageTracker
from tests.test_reward import coverage_from_rows


# ------------------------------------------------------------------ #
# key tuples <-> the columnar space
# ------------------------------------------------------------------ #
def as_rows(tables, ids):
    """Rows of a row-id matrix as tuples of ``(table, row id)`` keys."""
    return [tuple(zip(tables, row)) for row in np.asarray(ids).tolist()]


def space_of(actions):
    """The :class:`ActionSpace` of ``[(keys, source), ...]``."""
    tables = sorted({table for keys, _ in actions for table, _ in keys})
    keys = [key for action_keys, _ in actions for key in action_keys]
    return ActionSpace(
        tables,
        [tables.index(table) for table, _ in keys],
        [row for _, row in keys],
        np.cumsum([0] + [len(action_keys) for action_keys, _ in actions]),
        [source for _, source in actions],
    )


def actions_of(space):
    """``[(keys, source), ...]`` of a space, keys as ``(table, row id)``."""
    keys = list(zip([space.tables[c] for c in space.key_tables], space.key_rows.tolist()))
    offsets = space.offsets.tolist()
    return [
        (tuple(keys[lo:hi]), source)
        for lo, hi, source in zip(offsets, offsets[1:], space.sources.tolist())
    ]


def keys_of(space, action):
    return actions_of(space)[action][0]


def reference_group_rows_into_actions(row_requirements, source_queries, group_size, rng):
    """The grouping over key tuples: ``[(keys, source), ...]``."""
    if group_size < 1:
        raise ValueError(f"group size must be >= 1, got {group_size}")
    by_query = {}
    for i, q in enumerate(source_queries):
        by_query.setdefault(q, []).append(i)
    actions = []
    for q in sorted(by_query):
        indices = by_query[q]
        order = rng.permutation(len(indices))
        for start in range(0, len(indices), group_size):
            chunk = [indices[j] for j in order[start : start + group_size]]
            keys = dict.fromkeys(key for i in chunk for key in row_requirements[i])
            if keys:
                actions.append((tuple(keys), q))
    return actions


@pytest.fixture
def actions():
    return [
        ((("t", 0), ("u", 0)), 0),
        ((("t", 1), ("u", 1)), 0),
        ((("t", 2),), 1),
        ((("t", 3), ("t", 4)), 1),
    ]


@pytest.fixture
def space(actions):
    return space_of(actions)


@pytest.fixture
def coverages():
    return [
        coverage_from_rows("q0", 0.5, 2, [(("t", 0), ("u", 0)), (("t", 1), ("u", 1))]),
        coverage_from_rows("q1", 0.5, 3, [(("t", 2),), (("t", 3),), (("t", 4),)]),
    ]


def _config(**overrides):
    defaults = dict(memory_budget=5, query_batch_size=2, drp_horizon=6, seed=0)
    defaults.update(overrides)
    return ASQPConfig(**defaults)


class TestActionSpace:
    def test_len_and_indexing(self, space, actions):
        assert len(space) == 4
        assert actions_of(space) == actions
        assert keys_of(space, 0) == (("t", 0), ("u", 0))
        # One dense id per distinct key.
        assert space.key_ids.tolist() == [0, 1, 2, 3, 4, 5, 6]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ActionSpace(["t"], [], [], [0], [])

    def test_stats(self, space):
        assert np.diff(space.offsets).mean() == pytest.approx((2 + 2 + 1 + 2) / 4)
        assert space.total_distinct_tuples() == 7

    def test_extend(self, space, actions):
        extra = [((("a", 9), ("t", 0)), 5)]
        bigger = space.extend(space_of(extra))
        assert len(bigger) == 5
        assert actions_of(bigger) == actions + extra
        assert bigger.tables == ("a", "t", "u")  # codes remapped for the new table
        assert bigger.total_distinct_tuples() == 8
        assert len(space) == 4  # original untouched
        assert actions_of(space) == actions

    def test_approximation_of_key_ids(self, space):
        approx = space.approximation(np.unique(space.key_ids[[0, 1, 5]]))
        assert approx.rows == {"t": {0, 3}, "u": {0}}


def _group(rows_by_block, sources, group_size, rng):
    """:func:`group_rows_into_actions` of one block per ``(tables, ids)``."""
    blocks = [(tables, np.asarray(ids, dtype=np.int64).reshape(-1, len(tables)), q)
              for (tables, ids), q in zip(rows_by_block, sources)]
    space = group_rows_into_actions(blocks, group_size, rng)
    return [] if space is None else actions_of(space)


class TestGroupRows:
    def test_groups_within_source(self, rng):
        blocks = [(("t",), [[i] for i in range(3)]), (("t",), [[i] for i in range(3, 6)])]
        actions = _group(blocks, [0, 1], group_size=2, rng=rng)
        assert len(actions) == 4  # ceil(3/2) per source
        for _, source in actions:
            assert source in (0, 1)

    def test_duplicate_keys_collapse(self, rng):
        actions = _group([(("t", "u"), [[0, 1], [0, 2]])], [0], group_size=2, rng=rng)
        assert len(actions) == 1
        assert len(actions[0][0]) == 3

    def test_group_size_validation(self, rng):
        with pytest.raises(ValueError):
            group_rows_into_actions([], group_size=0, rng=rng)

    def test_all_rows_covered(self, rng):
        actions = _group([(("t",), [[i] for i in range(10)])], [0], group_size=3, rng=rng)
        keys = {key for action_keys, _ in actions for key in action_keys}
        assert keys == {("t", i) for i in range(10)}


@st.composite
def _row_blocks(draw):
    """Blocks of 1-4 tables each, row ids from a small range so keys repeat
    across the rows of a group, several sources (some shared by blocks)."""
    blocks = []
    for _ in range(draw(st.integers(0, 5))):
        tables = draw(st.lists(st.sampled_from("abcde"), min_size=1, max_size=4,
                               unique=True))
        if draw(st.booleans()):
            tables = sorted(tables)
        n_rows = draw(st.integers(0, 9))
        ids = draw(st.lists(
            st.lists(st.integers(0, 4), min_size=len(tables), max_size=len(tables)),
            min_size=n_rows, max_size=n_rows,
        ))
        ids = np.asarray(ids, dtype=np.int64).reshape(n_rows, len(tables))
        blocks.append((tables, ids, draw(st.integers(-1, 3))))
    return blocks


@given(blocks=_row_blocks(), group_size=st.integers(1, 5), seed=st.integers(0, 2**16))
@settings(max_examples=150, deadline=None)
def test_grouping_matches_the_tuple_reference(blocks, group_size, seed):
    """Same actions (key order and sources) and the same generator state
    afterwards as the grouping over key tuples."""
    rows = [row for tables, ids, _ in blocks for row in as_rows(tables, ids)]
    sources = [q for _, ids, q in blocks for _ in range(len(ids))]
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    want = reference_group_rows_into_actions(rows, sources, group_size, theirs)
    space = group_rows_into_actions(blocks, group_size, ours)
    assert (actions_of(space) if space is not None else []) == want
    assert ours.integers(0, 2**31) == theirs.integers(0, 2**31)


class TestInternedActions:
    def test_environments_over_one_index_intern_an_action_once(
        self, space, coverages, rng, monkeypatch
    ):
        """Each environment interns its whole space in one pass when it is
        built, and no key while it steps."""
        index = CoverageIndex(coverages)
        calls = Counter()
        intern_actions = CoverageIndex.intern_actions

        def counting(self, action_space):
            calls["intern_actions"] += 1
            return intern_actions(self, action_space)

        monkeypatch.setattr(CoverageIndex, "intern_actions", counting)
        monkeypatch.setattr(CoverageIndex, "intern", None)
        gsl = GSLEnvironment(
            space, coverages, _config(memory_budget=3), rng, coverage_index=index
        )
        drp = GSLEnvironment(
            space, coverages, _config(memory_budget=3, environment="drp"), rng,
            coverage_index=index,
        )
        assert calls["intern_actions"] == 2
        gsl.reset()
        gsl.step(0)
        drp.reset()  # fills to the budget, then every step swaps a group
        for _ in range(4):
            drp.step(int(np.flatnonzero(~drp.selected)[0]))
        assert calls["intern_actions"] == 2
        monkeypatch.undo()
        # The space's adds and removes leave the tracker where plain keys would.
        plain = CoverageTracker(coverages)
        for action in np.flatnonzero(drp.selected):
            plain.add_keys(list(keys_of(space, int(action))))
        assert drp.tracker.covered_counts().tolist() == plain.covered_counts().tolist()
        assert drp.tracker.batch_score() == plain.batch_score()

    @given(keys=st.lists(st.lists(st.tuples(st.sampled_from("tuz"), st.integers(0, 5)),
                                  min_size=1, max_size=6), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_one_pass_equals_intern_per_action(self, keys):
        coverages = [
            coverage_from_rows("q0", 0.5, 2, [(("t", 0), ("u", 0)), (("t", 1), ("u", 1))]),
            coverage_from_rows("q1", 0.5, 3, [(("t", 2),), (("t", 3),), (("t", 4),)]),
        ]
        index = CoverageIndex(coverages)
        space = space_of([(tuple(action), 0) for action in keys])
        flat, offsets = index.intern_actions(space)
        for a, action in enumerate(keys):
            want = index.intern(action)
            lo, hi = offsets[a], offsets[a + 1]
            assert flat.ids[lo:hi].tolist() == want.ids.tolist()
            assert flat.counts[lo:hi].tolist() == want.counts.tolist()


@pytest.mark.parametrize("environment", ["gsl", "drp", "drp+gsl"])
def test_one_selection_state_after_random_steps(actions, coverages, environment):
    """The set, its size and the tracker all read the selected groups'
    keys, including a tuple two groups share and one a group repeats."""
    shared = actions + [
        ((("t", 0), ("t", 2)), 0),
        ((("u", 1), ("u", 1), ("t", 3)), 1),
    ]
    space = space_of(shared)
    config = _config(memory_budget=4, drp_horizon=40, environment=environment)
    rng = np.random.default_rng(7)
    env = GSLEnvironment(space, coverages, config, rng)
    for _ in range(12):
        _, mask = env.reset()
        done = False
        while not done:
            _, _, done, mask = env.step(int(rng.choice(np.flatnonzero(mask))))
            union = {
                key for a in np.flatnonzero(env.selected) for key in keys_of(space, a)
            }
            approx = env.approximation_set()
            assert set(approx.keys()) == union
            assert env.size == approx.total_size()
            fresh = CoverageTracker(coverages).score_with_keys(sorted(union))
            assert env.tracker.batch_score() == fresh


class TestGSLEnvironment:
    def test_episode_reaches_budget(self, space, coverages, rng):
        env = GSLEnvironment(space, coverages, _config(), rng)
        state, mask = env.reset()
        assert state.sum() == 0 and mask.all()
        done = False
        steps = 0
        while not done:
            action = int(np.flatnonzero(mask)[0])
            state, reward, done, mask = env.step(action)
            steps += 1
        assert env.size >= 5 or not mask.any()

    def test_mask_violation_raises(self, space, coverages, rng):
        env = GSLEnvironment(space, coverages, _config(), rng)
        env.reset()
        env.step(0)
        with pytest.raises(ValueError, match="already selected"):
            env.step(0)

    def test_delta_rewards_telescope_to_score(self, space, coverages, rng):
        config = _config(memory_budget=100, query_batch_size=2)
        env = GSLEnvironment(space, coverages, config, rng,
                             query_batch=[0, 1])
        _, mask = env.reset()
        total = 0.0
        done = False
        while not done and mask.any():
            action = int(np.flatnonzero(mask)[0])
            _, reward, done, mask = env.step(action)
            total += reward
        assert total == pytest.approx(env.tracker.batch_score())

    def test_absolute_rewards_mode(self, space, coverages, rng):
        config = _config(gsl_delta_rewards=False)
        env = GSLEnvironment(space, coverages, config, rng, query_batch=[0, 1])
        env.reset()
        _, r1, _, _ = env.step(0)
        assert r1 == pytest.approx(env.tracker.batch_score([0, 1]))

    def test_fixed_batch_respected(self, space, coverages, rng):
        env = GSLEnvironment(space, coverages, _config(), rng, query_batch=[1])
        env.reset()
        assert env.batch == [1]

    def test_reset_clears_state(self, space, coverages, rng):
        env = GSLEnvironment(space, coverages, _config(), rng)
        env.reset()
        env.step(0)
        state, mask = env.reset()
        assert state.sum() == 0
        assert mask.all()
        assert env.size == 0


class TestDropOneEnvironment:
    def test_initializes_full(self, space, coverages, rng):
        env = GSLEnvironment(space, coverages, _config(environment="drp"), rng)
        state, mask = env.reset()
        assert env.size >= 5 or state.sum() == len(space)

    def test_swap_keeps_size_roughly_constant(self, space, coverages, rng):
        env = GSLEnvironment(space, coverages, _config(environment="drp"), rng)
        _, mask = env.reset()
        before = env.size
        action = int(np.flatnonzero(mask)[0])
        env.step(action)
        after = env.size
        assert abs(after - before) <= 2  # one group out, one in

    def test_horizon_terminates(self, space, coverages, rng):
        config = _config(drp_horizon=2, memory_budget=2, environment="drp")
        env = GSLEnvironment(space, coverages, config, rng)
        _, mask = env.reset()
        done = False
        steps = 0
        while not done and mask.any():
            action = int(np.flatnonzero(mask)[0])
            _, _, done, mask = env.step(action)
            steps += 1
        assert steps <= 2

    def test_reward_is_delta(self, space, coverages, rng):
        env = GSLEnvironment(space, coverages, _config(environment="drp"), rng)
        _, mask = env.reset()
        before = env.tracker.batch_score(env.batch)
        action = int(np.flatnonzero(mask)[0])
        _, reward, _, _ = env.step(action)
        after = env.tracker.batch_score(env.batch)
        assert reward == pytest.approx(after - before)


class TestHybridEnvironment:
    def test_grows_then_swaps(self, space, coverages, rng):
        config = _config(memory_budget=3, drp_horizon=4, environment="drp+gsl")
        env = GSLEnvironment(space, coverages, config, rng)
        _, mask = env.reset()
        done = False
        while not done and mask.any():
            action = int(np.flatnonzero(mask)[0])
            _, _, done, mask = env.step(action)
        assert env.size >= 3 or not mask.any()
