"""Unit tests for repro.core.action_space and repro.core.environment."""

import numpy as np
import pytest

from repro.core import (
    ASQPConfig,
    Action,
    ActionSpace,
    GSLEnvironment,
    group_rows_into_actions,
)
from repro.core.reward import CoverageIndex, CoverageTracker
from tests.test_reward import coverage_from_rows


@pytest.fixture
def actions():
    return [
        Action(keys=(("t", 0), ("u", 0)), source_query=0),
        Action(keys=(("t", 1), ("u", 1)), source_query=0),
        Action(keys=(("t", 2),), source_query=1),
        Action(keys=(("t", 3), ("t", 4)), source_query=1),
    ]


@pytest.fixture
def space(actions):
    return ActionSpace(actions)


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
        assert space[2] is actions[2]
        assert space.keys_of(0) == (("t", 0), ("u", 0))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ActionSpace([])

    def test_stats(self, space):
        assert space.mean_action_size() == pytest.approx((2 + 2 + 1 + 2) / 4)
        assert space.total_distinct_tuples() == 7

    def test_extend(self, space):
        extra = [Action(keys=(("t", 9),), source_query=5)]
        bigger = space.extend(extra)
        assert len(bigger) == 5
        assert bigger[4] is extra[0]
        assert len(space) == 4  # original untouched


class TestGroupRows:
    def test_groups_within_source(self, rng):
        rows = [(("t", i),) for i in range(6)]
        sources = [0, 0, 0, 1, 1, 1]
        actions = group_rows_into_actions(rows, sources, group_size=2, rng=rng)
        assert len(actions) == 4  # ceil(3/2) per source
        for action in actions:
            assert action.source_query in (0, 1)

    def test_duplicate_keys_collapse(self, rng):
        rows = [(("t", 0), ("u", 1)), (("t", 0), ("u", 2))]
        actions = group_rows_into_actions(rows, [0, 0], group_size=2, rng=rng)
        assert len(actions) == 1
        assert len(actions[0].keys) == 3

    def test_group_size_validation(self, rng):
        with pytest.raises(ValueError):
            group_rows_into_actions([], [], group_size=0, rng=rng)

    def test_all_rows_covered(self, rng):
        rows = [(("t", i),) for i in range(10)]
        actions = group_rows_into_actions(rows, [0] * 10, group_size=3, rng=rng)
        keys = {key for action in actions for key in action.keys}
        assert keys == {("t", i) for i in range(10)}


class TestInternedActions:
    def test_environments_over_one_index_intern_an_action_once(
        self, space, coverages, rng
    ):
        index = CoverageIndex(coverages)
        gsl = GSLEnvironment(
            space, coverages, _config(memory_budget=3), rng, coverage_index=index
        )
        drp = GSLEnvironment(
            space, coverages, _config(memory_budget=3, environment="drp"), rng,
            coverage_index=index,
        )
        gsl.reset()
        gsl.step(0)
        assert list(index._interned) == [space.keys_of(0)]
        first = index._interned[space.keys_of(0)]
        drp.reset()  # fills to the budget, then every step swaps a group
        for _ in range(4):
            drp.step(int(np.flatnonzero(~drp.selected)[0]))
        assert index._interned[space.keys_of(0)] is first
        assert set(index._interned) <= {action.keys for action in space}
        # Interned adds and removes leave the tracker where plain keys would.
        plain = CoverageTracker(coverages)
        for action in np.flatnonzero(drp.selected):
            plain.add_keys(list(space.keys_of(int(action))))
        assert drp.tracker.covered_counts().tolist() == plain.covered_counts().tolist()
        assert drp.tracker.batch_score() == plain.batch_score()


@pytest.mark.parametrize("environment", ["gsl", "drp", "drp+gsl"])
def test_one_selection_state_after_random_steps(actions, coverages, environment):
    """The set, its size and the tracker all read the selected groups'
    keys, including a tuple two groups share and one a group repeats."""
    shared = actions + [
        Action(keys=(("t", 0), ("t", 2)), source_query=0),
        Action(keys=(("u", 1), ("u", 1), ("t", 3)), source_query=1),
    ]
    space = ActionSpace(shared)
    config = _config(memory_budget=4, drp_horizon=40, environment=environment)
    rng = np.random.default_rng(7)
    env = GSLEnvironment(space, coverages, config, rng)
    for _ in range(12):
        _, mask = env.reset()
        done = False
        while not done:
            _, _, done, mask = env.step(int(rng.choice(np.flatnonzero(mask))))
            union = {
                key for a in np.flatnonzero(env.selected) for key in space.keys_of(a)
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
