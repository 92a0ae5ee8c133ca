"""Alg. 2 with the first layer as a running sum against the loops it replaced.

``generate_approximation_set`` adds one row of ``W0`` per step and finishes
the pass with ``MLP.predict_from_first``; the loop that pushed the whole
multi-hot state through ``actor.greedy`` / ``actor.sample`` at every step is
kept here as the reference (``benchmarks/bench_kernels.py`` times against it).
The two must pick the same actions, build the same sets and leave the
generator at the same draw; the only float difference allowed is the
summation order of the first layer. ``reference_generate_tuples`` is the
running-sum loop as it held the set in ``(table, row id)`` tuples, before
it tracked the held keys by id: the two must agree exactly, and
:meth:`TrainedModel.approximation_set` must keep the candidate that the
tuple sets scored over their interned keys pick.
"""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import (
    ASQPAgent,
    ASQPConfig,
    ASQPTrainer,
    generate_approximation_set,
)
from repro.core import inference
from repro.core.approximation import ApproximationSet
from repro.core.reward import CoverageTracker
from repro.rl.nn import MLP, masked_log_softmax_, masked_softmax
from repro.rl.policy import ActorNetwork, draw_actions
from tests.test_action_env import actions_of, space_of
from tests.test_reward import intern

SEEDS = range(20)


# ------------------------------------------------------------------ #
# reference: the loop as it was before the running sum
# ------------------------------------------------------------------ #
def reference_generate(actor, action_space, config, rng=None, greedy=True):
    budget = config.memory_budget
    rng = rng or np.random.default_rng(config.seed)
    action_keys = [keys for keys, _ in actions_of(action_space)]
    selected = np.zeros(actor.n_actions, dtype=bool)
    approx = ApproximationSet()
    while approx.total_size() < budget:
        mask = ~selected
        if not mask.any():
            break
        if greedy:
            action = actor.greedy(selected, mask)
        else:
            action = actor.sample(selected, mask, rng).action
        selected[action] = True
        keys = list(action_keys[action])
        remaining = budget - approx.total_size()
        new_keys = [key for key in keys if key not in approx]
        if len(new_keys) > remaining:
            new_keys = new_keys[:remaining]
        approx.add_keys(new_keys)
    return approx


def reference_generate_tuples(actor, action_space, config, rng=None, greedy=True):
    budget = config.memory_budget
    rng = rng or np.random.default_rng(config.seed)
    action_keys = [keys for keys, _ in actions_of(action_space)]
    net = actor.net
    pre = net.biases[0].copy()
    selected = np.zeros(actor.n_actions, dtype=bool)
    probs = np.empty(actor.n_actions)
    approx = ApproximationSet()
    size = 0
    for _ in range(actor.n_actions):
        if size >= budget:
            break
        logits = net.predict_from_first(pre.copy())
        action = inference.choose(logits, selected, probs, None if greedy else rng.random())
        selected[action] = True
        pre += net.weights[0][action]
        new_keys = [key for key in action_keys[action] if key not in approx]
        if len(new_keys) > budget - size:
            new_keys = new_keys[: budget - size]
        approx.add_keys(new_keys)
        size += len(set(new_keys))
    return approx


# ------------------------------------------------------------------ #
# three actors: trained, freshly initialised, grown by a fine-tune
# ------------------------------------------------------------------ #
def synthetic_actions(n, rng, tables=("title", "cast_info", "name"), rows=60):
    """Groups of 1-6 keys that overlap one another; every third repeats a key."""
    actions = []
    for i in range(n):
        keys = [
            (tables[int(rng.integers(len(tables)))], int(rng.integers(rows)))
            for _ in range(int(rng.integers(1, 7)))
        ]
        if i % 3 == 0:
            keys.append(keys[0])
        actions.append((tuple(keys), i % 4))
    return actions


@pytest.fixture(scope="module")
def trained(tiny_imdb):
    config = ASQPConfig(
        memory_budget=80, n_iterations=3, n_actors=2, episodes_per_actor=1,
        action_space_target=50, n_query_representatives=6,
        n_candidate_rollouts=2, learning_rate=1e-3, seed=7,
    )
    return ASQPTrainer(tiny_imdb.db, tiny_imdb.workload, config).train()


@pytest.fixture(scope="module", params=["trained", "fresh", "expanded"])
def policy(request, trained):
    """``(actor, action_space, config)``."""
    config = trained.config
    rng = np.random.default_rng(3)
    if request.param == "trained":
        return trained.agent.actor, trained.action_space, config
    if request.param == "fresh":
        space = space_of(synthetic_actions(48, rng))
        return ASQPAgent(len(space), config, rng).actor, space, config
    agent = ASQPAgent(len(trained.action_space), config, rng)
    for target, source in zip(
        agent.actor.net.parameters(), trained.agent.actor.net.parameters()
    ):
        target[...] = source
    added = synthetic_actions(14, rng)
    space = trained.action_space.extend(space_of(added))
    agent.expand_action_space(len(space))
    return agent.actor, space, config


def trimming_budget(actor, space, after_steps=3):
    """A budget the greedy rollout reaches in the middle of a group."""
    action_keys = [keys for keys, _ in actions_of(space)]
    selected = np.zeros(actor.n_actions, dtype=bool)
    seen = set()
    for step in range(actor.n_actions):
        action = actor.greedy(selected, ~selected)
        selected[action] = True
        new = set(action_keys[action]) - seen
        if step >= after_steps and len(new) >= 2:
            return len(seen) + len(new) - 1
        seen |= new
    raise AssertionError("no group of two new keys to trim")


BUDGETS = {
    "one": lambda actor, space: 1,
    "trims the final group": trimming_budget,
    "mask empties first": lambda actor, space: space.total_distinct_tuples() + 5,
}


# ------------------------------------------------------------------ #
class TestKeyIdsAgainstTheTupleLoop:
    @pytest.mark.parametrize("greedy", [True, False], ids=["greedy", "sampled"])
    @pytest.mark.parametrize("budget", BUDGETS)
    def test_policies(self, policy, budget, greedy):
        actor, space, config = policy
        config = dataclasses.replace(config, memory_budget=BUDGETS[budget](actor, space))
        for seed in range(5):
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            want = reference_generate_tuples(actor, space, config, theirs, greedy)
            got = space.approximation(
                generate_approximation_set(actor, space, config, ours, greedy)
            )
            assert got.rows == want.rows
            assert ours.random() == theirs.random()

    @pytest.mark.parametrize("greedy", [True, False], ids=["greedy", "sampled"])
    def test_eight_key_groups_drawn_with_repeats(self, greedy):
        """Groups as ``benchmarks/bench_kernels.py``'s rollout fixture draws
        them: 8 keys each from a small universe, so keys repeat within and
        across groups; every budget from 1 past the distinct count."""
        rng = np.random.default_rng(11)
        universe = [(table, row) for table in "abc" for row in range(20)]
        space = space_of([
            (tuple(universe[p] for p in rng.integers(0, len(universe), size=8)), a % 5)
            for a in range(40)
        ])
        actor = ActorNetwork(len(space), rng)
        for budget in range(1, space.total_distinct_tuples() + 2):
            config = ASQPConfig(memory_budget=budget, seed=budget)
            want = reference_generate_tuples(actor, space, config, greedy=greedy)
            got = space.approximation(
                generate_approximation_set(actor, space, config, greedy=greedy)
            )
            assert got.rows == want.rows
            assert got.total_size() == min(budget, space.total_distinct_tuples())


class TestCandidatePick:
    @pytest.mark.parametrize("budget", BUDGETS)
    def test_the_pick_scored_over_tuples(self, trained, policy, budget):
        """The greedy candidate and ten sampled ones off one generator, each
        a tuple set scored by the tracker through ``intern``: the model
        keeps the first with the best score."""
        actor, space, config = policy
        config = dataclasses.replace(
            config, memory_budget=BUDGETS[budget](actor, space), n_candidate_rollouts=10
        )
        model = dataclasses.replace(
            trained, config=config, action_space=space, agent=SimpleNamespace(actor=actor)
        )
        rng = np.random.default_rng(config.seed + 31)
        candidates = [
            reference_generate_tuples(actor, space, config, rng, greedy=greedy)
            for greedy in [True] + [False] * config.n_candidate_rollouts
        ]
        tracker = CoverageTracker(trained.coverages)
        scores = [tracker.score_with_keys(intern(tracker.index, c.keys())) for c in candidates]
        assert model.approximation_set().rows == candidates[scores.index(max(scores))].rows
        assert model.approximation_set(greedy=False).rows == candidates[0].rows


class TestSameSetsSameStream:
    @pytest.mark.parametrize("greedy", [True, False], ids=["greedy", "sampled"])
    @pytest.mark.parametrize("budget", BUDGETS)
    def test_keys_and_next_draw(self, policy, budget, greedy):
        actor, space, config = policy
        size = BUDGETS[budget](actor, space)
        config = dataclasses.replace(config, memory_budget=size)
        reached = 0
        for seed in SEEDS:
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            want = reference_generate(actor, space, config, theirs, greedy)
            got = space.approximation(generate_approximation_set(
                actor, space, config, rng=ours, greedy=greedy
            ))
            assert got.rows == want.rows
            assert got.total_size() <= size
            assert ours.random() == theirs.random()
            reached += got.total_size() == size
        if budget == "mask empties first":
            assert reached == 0
            assert got.total_size() == space.total_distinct_tuples()
        else:
            assert reached == len(SEEDS)

    def test_default_generator_is_seeded_by_the_config(self, policy):
        actor, space, config = policy
        want = reference_generate(actor, space, config, greedy=False)
        got = space.approximation(
            generate_approximation_set(actor, space, config, greedy=False)
        )
        assert got.rows == want.rows


class TestEveryStep:
    @pytest.mark.parametrize("greedy", [True, False], ids=["greedy", "sampled"])
    def test_logits_and_choice_against_the_batched_kernels(
        self, policy, greedy, monkeypatch
    ):
        actor, space, config = policy
        choose = inference.choose
        steps = []

        def checking(logits, selected, probs, uniform):
            before = logits.copy()
            action = choose(logits, selected, probs, uniform)
            full = actor.logits(selected)[0]
            assert np.abs(before - full).max() <= 1e-12
            mask = ~selected
            if greedy:
                assert uniform is None
                want = masked_log_softmax_(before[None, :].copy(), mask)[0]
                np.testing.assert_array_equal(logits, want)
                assert action == int(np.argmax(want))
            else:
                _, probabilities = masked_softmax(before, mask)
                cdf = np.cumsum(probabilities, axis=1)
                cdf /= cdf[:, -1:]
                np.testing.assert_array_equal(probs, cdf[0])
                fixed = SimpleNamespace(random=lambda: uniform)
                assert action == draw_actions(probabilities, [fixed])[0]
            assert mask[action]
            steps.append(action)
            return action

        monkeypatch.setattr(inference, "choose", checking)
        config = dataclasses.replace(
            config, memory_budget=space.total_distinct_tuples() + 5
        )
        for seed in SEEDS if not greedy else [0]:
            del steps[:]
            generate_approximation_set(
                actor, space, config, rng=np.random.default_rng(seed), greedy=greedy
            )
            assert sorted(steps) == list(range(actor.n_actions))


class TestPredictFromFirst:
    """``predict`` keeps its own loop (its frame must not hold the batch-wide
    first layer across the tail), so the two are tied together here."""

    @pytest.mark.parametrize("hidden", [(128, 64), (16,), ()])
    @pytest.mark.parametrize("dtype", [bool, np.float64])
    @pytest.mark.parametrize("ndim", [1, 2])
    def test_is_the_rest_of_predict(self, hidden, dtype, ndim):
        rng = np.random.default_rng(11)
        net = MLP([70, *hidden, 70], rng)
        for bias in net.biases:
            bias[...] = rng.normal(size=bias.shape)
        x = rng.random((9, 70)) < 0.3 if dtype is bool else rng.normal(size=(9, 70))
        x = x[0] if ndim == 1 else x
        first = np.atleast_2d(np.asarray(x, dtype=np.float64)) @ net.weights[0]
        first += net.biases[0]
        np.testing.assert_array_equal(net.predict_from_first(first), net.predict(x))

    def test_overwrites_what_it_is_given(self):
        net = MLP([5, 4, 5], np.random.default_rng(0))
        first = np.ones((1, 4))
        net.predict_from_first(first)
        np.testing.assert_array_equal(first, np.tanh(np.ones((1, 4))))

