"""Selection states travel as bits, and the update allocates each
batch × |A| array once.

Ceilings on what ``PPOUpdater.update`` allocates (``tracemalloc``, in units
of one batch × |A| float64 array), bit-identity of the two in-place passes
that make them hold (π_old over its own logits, the cache-free
``predict``), and the dtype contract: a bool state and the float64 state it
replaced train to the same bytes.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from repro.core import ASQPConfig, GSLEnvironment
from repro.core.reward import CoverageIndex
from repro.rl import (
    ActorNetwork,
    CriticNetwork,
    MultiActorCollector,
    PPOConfig,
    PPOUpdater,
    RolloutBatch,
    RolloutBuffer,
    make_actor_specs,
)
from repro.rl import nn
from tests.test_rl import small_actor, small_critic
from tests.test_rl_batched import N_ACTIONS, _synthetic_problem


# ------------------------------------------------------------------ #
# (a) what update() allocates
# ------------------------------------------------------------------ #
def multi_hot_batch(n=1448, n_actions=828, seed=0) -> RolloutBatch:
    """One ``fit_small_train`` iteration's shape: bool multi-hot states,
    the masks their complement, one valid action per row."""
    rng = np.random.default_rng(seed)
    states = rng.random((n, n_actions)) < 0.1
    masks = ~states
    actions = np.asarray([rng.choice(np.flatnonzero(row)) for row in masks])
    return RolloutBatch(
        states=states, actions=actions,
        old_log_probs=np.full(n, -np.log(n_actions)),
        returns=rng.standard_normal(n), advantages=rng.standard_normal(n),
        masks=masks,
    )


def batch_arrays(batch: RolloutBatch) -> float:
    """What ``batch`` itself holds, in batch × |A| float64 arrays."""
    n, n_actions = batch.masks.shape
    held = sum(getattr(batch, f.name).nbytes for f in dataclasses.fields(batch))
    return held / (n * n_actions * 8)


def update_peak(config: PPOConfig, batch: RolloutBatch) -> float:
    """The most ``update()`` holds over what was allocated at its entry, in
    batch × |A| float64 arrays (also ``bench_kernels.py``'s
    ``ppo_update_peak`` row)."""
    n, n_actions = batch.masks.shape
    rng = np.random.default_rng(1)
    actor = ActorNetwork(n_actions, rng)
    critic = CriticNetwork(n_actions, rng) if config.use_critic else None
    updater = PPOUpdater(actor, critic, config, np.random.default_rng(2))
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        updater.update(batch)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    return peak / (n * n_actions * 8)


@pytest.mark.parametrize(
    "config, ceiling",
    [
        # Measured 2.10 / 1.44 / 0.72 (batch 0.26 of it) with the critic on
        # its own lane and block-wide Adam scratch; 4.14 for all three
        # before states were bits and π_old was written over its own logits.
        pytest.param(PPOConfig(), 2.25, id="ppo"),
        pytest.param(PPOConfig(use_clip=False), 1.6, id="a2c"),
        pytest.param(PPOConfig(use_clip=False, use_critic=False), 1.0, id="reinforce"),
    ],
)
def test_update_footprint_ceiling(config, ceiling):
    batch = multi_hot_batch()
    assert batch_arrays(batch) + update_peak(config, batch) <= ceiling


@pytest.mark.parametrize("kl_coef", [0.2, 0.0])
def test_pi_old_is_computed_only_for_the_kl_term(kl_coef, monkeypatch):
    batch = multi_hot_batch(n=130, n_actions=20)
    rng = np.random.default_rng(1)
    actor, critic = ActorNetwork(20, rng), CriticNetwork(20, rng)
    calls = []
    log_probs = actor.log_probs
    monkeypatch.setattr(
        actor, "log_probs", lambda *a: calls.append(1) or log_probs(*a)
    )
    PPOUpdater(actor, critic, PPOConfig(kl_coef=kl_coef)).update(batch)
    assert len(calls) == (1 if kl_coef > 0 else 0)
    calls.clear()
    PPOUpdater(actor, critic, PPOConfig(use_clip=False, kl_coef=kl_coef)).update(batch)
    assert not calls


# ------------------------------------------------------------------ #
# (b) the in-place passes are the allocating ones, bit for bit
# ------------------------------------------------------------------ #
@pytest.mark.parametrize("n", [1, nn._ROW_BLOCK, 2 * nn._ROW_BLOCK + 37])
def test_in_place_log_probs_equal_the_masked_softmax(n):
    n_actions = 90
    rng = np.random.default_rng(n)
    actor = small_actor(n_actions, rng, (16,))
    states = rng.random((n, n_actions)) < 0.3
    masks = rng.random((n, n_actions)) < 0.89         # ~11% masked
    masks[::3] = True                                 # nothing masked
    lone = np.arange(1, n, 3)                         # all but one masked
    masks[lone] = False
    masks[lone, rng.integers(n_actions, size=len(lone))] = True
    want = actor.distribution(states, masks)[0]
    got = actor.log_probs(states, masks)
    assert np.array_equal(got, want)
    assert np.array_equal(np.isneginf(got), ~masks)


def test_in_place_log_probs_refuse_a_row_without_a_valid_action():
    actor = small_actor(5, np.random.default_rng(0), (4,))
    masks = np.ones((3, 5), dtype=bool)
    masks[1] = False
    with pytest.raises(ValueError, match="no valid action"):
        actor.log_probs(np.zeros((3, 5), dtype=bool), masks)


@pytest.mark.parametrize("dtype", [bool, np.float64])
def test_predict_is_forward_without_the_cache(dtype):
    rng = np.random.default_rng(4)
    net = nn.MLP([30, 16, 8, 30], rng)
    x = (rng.random((77, 30)) < 0.4).astype(dtype)
    kept = x.copy()
    assert np.array_equal(net.predict(x), net.forward(x)[0])
    assert np.array_equal(net.predict(x[0]), net.forward(x[0])[0])  # one row
    assert x.dtype == dtype and np.array_equal(x, kept)


# ------------------------------------------------------------------ #
# (c) one path, two dtypes
# ------------------------------------------------------------------ #
class _FloatStateGSL(GSLEnvironment):
    """The state as it travelled before: a float64 copy of the selection."""

    def _state(self):
        return self.selected.astype(np.float64)


def _train_two_iterations(env_class):
    space, coverages = _synthetic_problem()
    config = ASQPConfig(memory_budget=30, query_batch_size=5, environment="gsl", seed=0)
    index = CoverageIndex(coverages)
    env_seeds = iter(np.random.SeedSequence(11).spawn(4))
    net_rng = np.random.default_rng(3)
    actor = small_actor(N_ACTIONS, net_rng, (16, 8))
    critic = small_critic(N_ACTIONS, net_rng, (16, 8))
    collector = MultiActorCollector(
        lambda: env_class(
            space, coverages, config, np.random.default_rng(next(env_seeds)),
            coverage_index=index,
        ),
        actor, critic, make_actor_specs(4, seed=17),
    )
    updater = PPOUpdater(actor, critic, PPOConfig(), np.random.default_rng(5))
    seen = []
    for _ in range(2):
        buffer = RolloutBuffer()
        collector.collect(2, buffer)
        batch = buffer.build()
        stats = updater.update(batch)
        seen.append((
            batch.states.dtype,
            [t.actions for t in buffer._trajectories],
            [t.rewards for t in buffer._trajectories],
            [t.log_probs for t in buffer._trajectories],
            dataclasses.astuple(stats),
        ))
    weights = [p.tobytes() for net in (actor.net, critic.net) for p in net.parameters()]
    return seen, weights


def test_bool_and_float_states_train_to_the_same_bytes():
    as_bits, bit_weights = _train_two_iterations(GSLEnvironment)
    as_floats, float_weights = _train_two_iterations(_FloatStateGSL)
    assert [it[0] for it in as_bits] == [np.dtype(bool)] * 2
    assert [it[0] for it in as_floats] == [np.dtype(np.float64)] * 2
    assert [it[1:] for it in as_bits] == [it[1:] for it in as_floats]
    assert bit_weights == float_weights


@pytest.mark.parametrize("environment", ["gsl", "drp", "drp+gsl"])
def test_our_environments_hand_the_batch_bool_states(environment):
    space, coverages = _synthetic_problem()
    config = ASQPConfig(
        memory_budget=30, query_batch_size=5, drp_horizon=7,
        environment=environment, seed=0,
    )
    env = GSLEnvironment(space, coverages, config, np.random.default_rng(1))
    state, _ = env.reset()
    assert state.dtype == bool and state is not env.selected
    rng = np.random.default_rng(3)
    collector = MultiActorCollector(
        lambda: env, small_actor(N_ACTIONS, rng, (8,)), None,
        make_actor_specs(1, seed=2),
    )
    buffer = RolloutBuffer()
    collector.collect(1, buffer)
    batch = buffer.build(use_critic=False)
    assert batch.states.dtype == bool and batch.masks.dtype == bool
    # A recorded state is a snapshot, not a view of the live selection.
    recorded = buffer._trajectories[0].states
    assert not any(np.shares_memory(state, env.selected) for state in recorded)
    assert len(recorded) > 1 and not np.array_equal(recorded[0], recorded[-1])
