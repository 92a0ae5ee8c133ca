"""The batched actor-critic hot path against its sequential / textbook forms.

The lock-step collector must take every decision the one-actor-at-a-time
loop took (kept here as the reference), the stacked sampler must consume a
generator exactly as ``Generator.choice`` does, the in-place blocked Adam
must be the textbook update bit for bit, the two-lane update must leave
the bytes the interleaved actor-then-critic loop left (also kept here) and
never outlive its critic lane, and the hand-derived PPO / A2C / REINFORCE
gradient must match a finite difference of the loss it claims to descend.
"""

import copy
import dataclasses
import sys
import threading
import time

import numpy as np
import pytest

from repro import obs

from repro.core import (
    ASQPConfig,
    GSLEnvironment,
    QueryCoverage,
)
from repro.core.reward import CoverageIndex
from repro.rl import (
    ActorNetwork,
    Adam,
    CriticNetwork,
    Environment,
    MultiActorCollector,
    NonFiniteUpdateError,
    PPOConfig,
    PPOUpdater,
    RolloutBatch,
    RolloutBuffer,
    Trajectory,
    UpdateStats,
    make_actor_specs,
)
from tests.test_action_env import space_of
from repro.obs import trace
from repro.rl import parallel
from repro.rl.nn import ADAM_BLOCK, masked_softmax
from repro.rl.policy import draw_actions
from tests.test_rl import small_actor, small_critic
from repro.rl.ppo import _clip_gradients

N_ACTIONS = 40


# ------------------------------------------------------------------ #
# reference: the collector as it was before the lock-step rewrite
# ------------------------------------------------------------------ #
def reference_episode(env, spec, actor, critic):
    trajectory = Trajectory()
    state, mask = env.reset()
    for _ in range(parallel.MAX_EPISODE_STEPS):
        if not mask.any():
            break
        log_probs = actor.distribution(state[None, :], mask[None, :], spec.temperature)[0][0]
        probabilities = np.exp(log_probs)
        probabilities /= probabilities.sum()
        action = int(spec.rng.choice(actor.n_actions, p=probabilities))
        value = float(critic.value(state[None, :])[0]) if critic is not None else 0.0
        next_state, reward, done, next_mask = env.step(action)
        trajectory.append(
            state=state, action=action, reward=reward,
            log_prob=float(log_probs[action]), value=value, mask=mask,
        )
        state, mask = next_state, next_mask
        if done:
            break
    return trajectory


def reference_collect(collector, episodes_per_actor, buffer):
    rewards = []
    for env, spec in zip(collector.environments, collector.specs):
        for _ in range(episodes_per_actor):
            trajectory = reference_episode(
                env, spec, collector.actor, collector.critic
            )
            if len(trajectory) > 0:
                buffer.add(trajectory)
                rewards.append(trajectory.total_reward)
    return float(np.mean(rewards)) if rewards else 0.0


# ------------------------------------------------------------------ #
# reference: the update as it was before the critic got a lane of its own
# ------------------------------------------------------------------ #
def reference_update(updater, batch):
    """Each minibatch runs the actor step, then the critic step, through one
    scratch as wide as the largest parameter of either network."""
    config, n = updater.config, len(batch)
    stats = UpdateStats(n_samples=n)
    if n == 0:
        return stats
    use_kl = config.use_clip and config.kl_coef > 0
    old_log_dist = updater.actor.log_probs(batch.states, batch.masks) if use_kl else None
    optimizers = [updater.actor_optimizer]
    if updater.critic_optimizer is not None:
        optimizers.append(updater.critic_optimizer)
    scratch = np.empty((2, max(p.size for o in optimizers for p in o.parameters)))
    n_updates = 0
    for _epoch in range(config.update_epochs):
        order = updater.rng.permutation(n)
        for start in range(0, n, config.minibatch_size):
            idx = order[start : start + config.minibatch_size]
            step = updater._minibatch_update(
                batch, idx, old_log_dist[idx] if use_kl else None, scratch
            )
            stats.policy_loss += step.policy_loss
            stats.entropy += step.entropy
            stats.kl_divergence += step.kl_divergence
            stats.clip_fraction += step.clip_fraction
            stats.grad_norm = max(stats.grad_norm, step.grad_norm)
            if config.use_critic:
                stats.value_loss += _reference_critic_step(updater, batch, idx, scratch)
            n_updates += 1
    for name in ("policy_loss", "value_loss", "entropy", "kl_divergence", "clip_fraction"):
        setattr(stats, name, getattr(stats, name) / n_updates)
    del old_log_dist, scratch
    stats.explained_variance = updater._explained_variance(batch)
    return stats


def _reference_critic_step(updater, batch, idx, scratch):
    states = np.asarray(batch.states[idx], dtype=np.float64)
    values, cache = updater.critic.net.forward(states)
    errors = values[:, 0] - batch.returns[idx]
    grad_values = (2.0 * errors / len(idx))[:, None] * updater.config.value_coef
    weight_grads, bias_grads = updater.critic.net.backward(cache, grad_values)
    gradients = weight_grads + bias_grads
    _clip_gradients(gradients, updater.config.max_grad_norm)
    updater.critic_optimizer.step(gradients, scratch)
    return float(np.mean(errors ** 2))


# ------------------------------------------------------------------ #
def _synthetic_problem(seed=5):
    """Actions of 1-6 tuples, so a budget of 30 is hit after a different
    number of steps depending on what each actor happens to pick."""
    rng = np.random.default_rng(seed)
    actions = [
        (
            tuple(
                (f"t{int(rng.integers(3))}", int(rng.integers(60)))
                for _ in range(int(rng.integers(1, 7)))
            ),
            a % 12,
        )
        for a in range(N_ACTIONS)
    ]
    coverages = []
    for q in range(12):
        weight = float(rng.uniform(0.5, 2.0))
        tables = sorted(rng.choice(["t0", "t1", "t2"], size=int(rng.integers(1, 3)),
                                   replace=False).tolist())
        ids = rng.integers(60, size=(8, len(tables)))
        coverages.append(QueryCoverage(f"q{q}", weight, 6, tables, ids))
    return space_of(actions), coverages


class _DeadStartEnv(Environment):
    """Every other ``reset()`` offers no valid action at all."""

    def __init__(self, inner):
        self.inner = inner
        self.rng = inner.rng
        self.resets = 0

    @property
    def n_actions(self):
        return self.inner.n_actions

    def reset(self):
        state, mask = self.inner.reset()
        self.resets += 1
        return state, mask & (self.resets % 2 == 0)

    def step(self, action):
        return self.inner.step(action)


def _collector(environment, with_critic, dead_start, n_actors=4):
    """A freshly seeded collector; two calls build identical twins."""
    space, coverages = _synthetic_problem()
    config = ASQPConfig(
        memory_budget=30, query_batch_size=5, drp_horizon=7,
        environment=environment, seed=0,
    )
    index = CoverageIndex(coverages)
    env_seeds = iter(np.random.SeedSequence(11).spawn(n_actors))

    def env_factory():
        env = GSLEnvironment(
            space, coverages, config,
            np.random.default_rng(next(env_seeds)), coverage_index=index,
        )
        return _DeadStartEnv(env) if dead_start else env

    net_rng = np.random.default_rng(3)
    actor = small_actor(N_ACTIONS, net_rng, (16, 8))
    critic = small_critic(N_ACTIONS, net_rng, (16, 8)) if with_critic else None
    return MultiActorCollector(
        env_factory, actor, critic, make_actor_specs(n_actors, seed=17)
    )


SCENARIOS = {
    "gsl": dict(environment="gsl"),
    "gsl-no-critic": dict(environment="gsl", with_critic=False),
    "gsl-step-cap": dict(environment="gsl", max_episode_steps=3),
    "gsl-dead-start": dict(environment="gsl", dead_start=True),
    "drp": dict(environment="drp"),
    "drp+gsl": dict(environment="drp+gsl"),
}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_lock_step_collect_takes_the_sequential_decisions(scenario, monkeypatch):
    settings = {
        "with_critic": True, "max_episode_steps": 10_000, "dead_start": False,
        **SCENARIOS[scenario],
    }
    monkeypatch.setattr(
        parallel, "MAX_EPISODE_STEPS", settings.pop("max_episode_steps")
    )
    reference, lock_step = _collector(**settings), _collector(**settings)
    expected, actual = RolloutBuffer(), RolloutBuffer()
    expected_reward = reference_collect(reference, 2, expected)
    actual_reward = lock_step.collect(2, actual)

    assert actual_reward == expected_reward
    assert len(actual._trajectories) == len(expected._trajectories) > 0
    for got, want in zip(actual._trajectories, expected._trajectories):
        assert got.actions == want.actions
        assert got.rewards == want.rewards
        assert np.allclose(got.log_probs, want.log_probs, rtol=0, atol=1e-12)
        assert np.allclose(got.values, want.values, rtol=0, atol=1e-12)
        assert np.array_equal(got.states, want.states)
        assert np.array_equal(got.masks, want.masks)
    # Every generator was consumed exactly as far as the reference's.
    for ours, theirs in zip(lock_step.specs, reference.specs):
        assert ours.rng.random() == theirs.rng.random()
    for ours, theirs in zip(lock_step.environments, reference.environments):
        assert ours.rng.random() == theirs.rng.random()

    lengths = [len(t) for t in expected._trajectories]
    if scenario == "gsl":
        assert len(set(lengths)) > 1, "actors must finish at different steps"
        assert len(lengths) == 8
    if scenario == "gsl-step-cap":
        assert lengths == [3] * 8
    if scenario == "gsl-dead-start":
        assert len(lengths) == 4  # each actor's first episode is empty
    if scenario == "gsl-no-critic":
        assert all(v == 0.0 for t in actual._trajectories for v in t.values)


def test_batch_rows_keep_actor_major_order():
    """``RolloutBatch`` rows: actor 0's episodes, then actor 1's, ..."""
    collector = _collector("gsl", True, False)
    buffer = RolloutBuffer()
    collector.collect(2, buffer)
    first_states = [t.states[0] for t in buffer._trajectories]
    assert all(state.sum() == 0 for state in first_states)  # each starts empty
    batch = buffer.build()
    assert len(batch) == sum(len(t) for t in buffer._trajectories)
    assert np.array_equal(
        batch.actions, np.concatenate([t.actions for t in buffer._trajectories])
    )


def test_stacked_sampler_equals_generator_choice():
    """Pins the numpy stream contract the lock-step design relies on."""
    rng = np.random.default_rng(23)
    n_rows, n = 200, 37
    logits = rng.standard_normal((n_rows, n)) * 3.0
    masks = rng.random((n_rows, n)) < 0.6
    masks[np.arange(n_rows), rng.integers(n, size=n_rows)] = True
    temperatures = rng.uniform(0.5, 2.0, size=n_rows)
    _, probabilities = masked_softmax(logits / temperatures[:, None], masks)

    drawn = draw_actions(
        probabilities, [np.random.default_rng(1000 + i) for i in range(n_rows)]
    )
    for i in range(n_rows):
        generator = np.random.default_rng(1000 + i)
        assert drawn[i] == generator.choice(n, p=probabilities[i])
        assert masks[i, drawn[i]]
    # One generator shared by all rows is advanced row by row.
    shared, alone = np.random.default_rng(5), np.random.default_rng(5)
    assert draw_actions(probabilities[:10], [shared] * 10).tolist() == [
        alone.choice(n, p=probabilities[i]) for i in range(10)
    ]
    assert shared.random() == alone.random()


# ------------------------------------------------------------------ #
ADAM_CASES = {
    # Two optimizers of different sizes sharing one scratch as wide as the
    # largest parameter: every parameter is one block.
    "shared-scratch": ([[(7, 5), (5,), (5, 11), (11,)], [(3, 4), (4,), (4, 1), (1,)]], 55),
    # Larger than one block and not a multiple of it (8 blocks + 1024).
    "multi-block": ([[(1032, 128), (128,), (128, 3), (3,)]], ADAM_BLOCK),
    # The step's own (2, ADAM_BLOCK) scratch.
    "default-scratch": ([[(1032, 128), (128,)], [(9, 2), (2,)]], None),
}


def test_in_place_adam_is_the_textbook_update_bit_for_bit():
    for case, (shapes, width) in ADAM_CASES.items():
        rng = np.random.default_rng(2)
        parameter_sets = [[rng.standard_normal(s) for s in group] for group in shapes]
        optimizers = [
            Adam(ps, learning_rate=1e-2 * (k + 1)) for k, ps in enumerate(parameter_sets)
        ]
        scratch = None if width is None else np.empty((2, width))

        expected = [[p.copy() for p in ps] for ps in parameter_sets]
        moments = [[(np.zeros_like(p), np.zeros_like(p)) for p in ps] for ps in parameter_sets]
        for t in range(1, 51):
            for k, optimizer in enumerate(optimizers):
                gradients = [rng.standard_normal(p.shape) * 10.0 ** rng.integers(-6, 3)
                             for p in parameter_sets[k]]
                optimizer.step(gradients, scratch)
                b1, b2, eps, lr = 0.9, 0.999, 1e-8, optimizer.learning_rate
                for p, g, (m, v) in zip(expected[k], gradients, moments[k]):
                    m[...] = b1 * m + (1.0 - b1) * g
                    v[...] = b2 * v + (1.0 - b2) * g * g
                    m_hat = m / (1.0 - b1 ** t)
                    v_hat = v / (1.0 - b2 ** t)
                    p -= lr * m_hat / (np.sqrt(v_hat) + eps)
                for ours, theirs in zip(parameter_sets[k], expected[k]):
                    assert np.array_equal(ours, theirs), f"{case}, step {t}"


def test_adam_refuses_a_parameter_it_would_step_a_copy_of():
    weight = np.zeros((6, 4))
    with pytest.raises(ValueError, match="parameter 1 .* not C-contiguous"):
        Adam([np.zeros(3), weight.T])
    with pytest.raises(ValueError, match="not C-contiguous"):
        Adam([weight[:, ::2]])
    Adam([weight, weight[2:]])  # row slices of a C array are contiguous


# ------------------------------------------------------------------ #
UPDATE_VARIANTS = {
    "ppo": PPOConfig(),
    "ppo-kl0": PPOConfig(kl_coef=0.0),
    "a2c": PPOConfig(use_clip=False),
    "reinforce": PPOConfig(use_clip=False, use_critic=False),
}


def _twin_updaters(config, n_actions):
    """Two updaters built from the same seeds."""
    twins = []
    for _ in range(2):
        rng = np.random.default_rng(1)
        actor = ActorNetwork(n_actions, rng)
        critic = CriticNetwork(n_actions, rng) if config.use_critic else None
        twins.append(PPOUpdater(actor, critic, config, np.random.default_rng(2)))
    return twins


def _network_bytes(updater):
    networks = [updater.actor] + ([updater.critic] if updater.critic is not None else [])
    return [p.tobytes() for network in networks for p in network.net.parameters()]


def _assert_update_is_the_serial_loop(config, n, calls=3):
    from tests.test_rl_memory import multi_hot_batch

    # |A| = 200 puts the first layers (200 x 128) past one Adam block.
    batch = multi_hot_batch(n=n, n_actions=200)
    serial, two_lane = _twin_updaters(config, 200)
    for call in range(calls):
        want = reference_update(serial, batch)
        got = two_lane.update(batch)
        assert got == want, f"call {call}"
        assert _network_bytes(two_lane) == _network_bytes(serial), f"call {call}"
    assert two_lane.rng.random() == serial.rng.random()


@pytest.mark.parametrize("n", [1, 63, 130, 1448])
@pytest.mark.parametrize("variant", sorted(UPDATE_VARIANTS))
def test_two_lane_update_equals_the_serial_loop(variant, n):
    _assert_update_is_the_serial_loop(UPDATE_VARIANTS[variant], n)


def test_two_lane_update_equals_the_serial_loop_under_mid_loop_gil_handoffs():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _assert_update_is_the_serial_loop(UPDATE_VARIANTS["ppo"], 130)
    finally:
        sys.setswitchinterval(interval)


def _lane_fixture(n=130):
    from tests.test_rl_memory import multi_hot_batch

    rng = np.random.default_rng(1)
    actor = small_actor(20, rng, (16,))
    critic = small_critic(20, rng, (16,))
    updater = PPOUpdater(actor, critic, PPOConfig(), np.random.default_rng(2))
    return updater, multi_hot_batch(n=n, n_actions=20)


def _broken(*_args):
    raise RuntimeError("broken backward")


def test_update_joins_its_lane_on_return_and_on_divergence():
    updater, batch = _lane_fixture()
    before = threading.active_count()
    updater.update(batch)
    assert threading.active_count() == before
    diverging = dataclasses.replace(batch, advantages=np.full(len(batch), np.nan))
    with pytest.raises(NonFiniteUpdateError):
        updater.update(diverging)
    assert threading.active_count() == before


def test_an_exception_in_the_lane_comes_out_of_update(monkeypatch):
    updater, batch = _lane_fixture()
    before = threading.active_count()
    monkeypatch.setattr(updater.critic.net, "backward", _broken)
    with pytest.raises(RuntimeError, match="broken backward"):
        updater.update(batch)
    assert threading.active_count() == before


def test_an_actor_exception_returns_only_after_the_lane_is_done(monkeypatch):
    updater, batch = _lane_fixture()
    before = threading.active_count()
    critic_step, lane_steps = updater.critic_optimizer.step, []

    def slow_step(gradients, scratch=None):
        time.sleep(0.002)  # the lane is still stepping when the actor fails
        critic_step(gradients, scratch)
        lane_steps.append(threading.current_thread().name)

    monkeypatch.setattr(updater.critic_optimizer, "step", slow_step)
    monkeypatch.setattr(updater.actor.net, "backward", _broken)
    with pytest.raises(RuntimeError, match="broken backward"):
        updater.update(batch)
    n_steps = updater.config.update_epochs * -(-len(batch) // updater.config.minibatch_size)
    assert len(lane_steps) == n_steps
    assert threading.current_thread().name not in lane_steps
    assert threading.active_count() == before
    critic_bytes = _network_bytes(updater)
    time.sleep(0.05)
    assert _network_bytes(updater) == critic_bytes


def test_the_lane_runs_inside_its_own_span():
    updater, batch = _lane_fixture()
    trace.reset()
    try:
        obs.enable()
        updater.update(batch)
        lanes = [root for root in trace.roots() if root.name == "train.update.critic"]
    finally:
        obs.disable()
        trace.reset()
    assert len(lanes) == 1
    assert lanes[0].thread_name != threading.current_thread().name


VARIANTS = {
    "ppo": PPOConfig(entropy_coef=0.05, kl_coef=0.3, max_grad_norm=0.0),
    "a2c": PPOConfig(entropy_coef=0.05, use_clip=False, max_grad_norm=0.0),
    "reinforce": PPOConfig(
        entropy_coef=0.05, use_clip=False, use_critic=False, max_grad_norm=0.0
    ),
}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_policy_loss_gradient_matches_finite_differences(variant):
    """The analytic gradient handed to Adam is d(loss)/d(actor parameters)."""
    config = VARIANTS[variant]
    rng = np.random.default_rng(9)
    n, n_actions = 12, 7
    actor = small_actor(n_actions, rng, (6,))
    critic = small_critic(n_actions, rng, (6,)) if config.use_critic else None
    behaviour = copy.deepcopy(actor)  # π_old: a perturbed copy, so ratios != 1 and KL > 0
    for parameter in behaviour.net.parameters():
        parameter += 0.3 * rng.standard_normal(parameter.shape)

    states = (rng.random((n, n_actions)) < 0.3).astype(np.float64)
    masks = rng.random((n, n_actions)) < 0.7
    actions = rng.integers(n_actions, size=n)
    masks[np.arange(n), actions] = True
    old_log_dist = behaviour.log_probs(states, masks)
    batch = RolloutBatch(
        states=states, actions=actions,
        old_log_probs=old_log_dist[np.arange(n), actions],
        returns=rng.standard_normal(n), advantages=rng.standard_normal(n),
        masks=masks,
    )

    def loss() -> float:
        log_dist = actor.log_probs(states, masks)
        probs = np.exp(log_dist)
        log_pi = log_dist[np.arange(n), actions]
        if config.use_clip:
            ratio = np.exp(log_pi - batch.old_log_probs)
            clipped = np.clip(ratio, 1 - config.clip_epsilon, 1 + config.clip_epsilon)
            total = -np.mean(np.minimum(ratio * batch.advantages, clipped * batch.advantages))
        else:
            total = -np.mean(log_pi * batch.advantages)
        plogp = np.where(masks, probs * np.where(masks, log_dist, 0.0), 0.0)
        total -= config.entropy_coef * np.mean(-plogp.sum(axis=1))
        if config.use_clip:
            log_ratio = np.where(masks, old_log_dist - np.where(masks, log_dist, 0.0), 0.0)
            total += config.kl_coef * np.mean((np.exp(old_log_dist) * log_ratio).sum(axis=1))
        return float(total)

    updater = PPOUpdater(actor, critic, config)
    captured: list[np.ndarray] = []
    updater.actor_optimizer.step = lambda gradients, scratch=None: captured.extend(
        g.copy() for g in gradients
    )
    stats = updater._minibatch_update(
        batch, np.arange(n), old_log_dist.copy(), np.empty((2, 64))
    )
    assert len(captured) == len(actor.net.parameters())
    if config.use_clip:
        assert 0.0 < stats.clip_fraction < 1.0, "both surrogate branches must be active"
        assert stats.kl_divergence > 0.0

    epsilon = 1e-6
    for parameter, gradient in zip(actor.net.parameters(), captured):
        for _ in range(6):
            at = np.unravel_index(int(rng.integers(parameter.size)), parameter.shape)
            original = parameter[at]
            parameter[at] = original + epsilon
            up = loss()
            parameter[at] = original - epsilon
            down = loss()
            parameter[at] = original
            numeric = (up - down) / (2 * epsilon)
            assert abs(numeric - gradient[at]) < 1e-6, (variant, at)
