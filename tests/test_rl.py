"""Unit tests for repro.rl: layers, gradients, PPO, rollouts, collection."""

import numpy as np
import pytest

from repro.rl import (
    MLP,
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
    discounted_returns,
    gae_advantages,
    make_actor_specs,
    softmax,
)
from repro.rl import policy, rollout
from repro.rl.nn import masked_log_softmax_


def small_actor(n_actions, rng, hidden):
    """``ActorNetwork(n_actions, rng)`` with ``hidden`` layers in place of
    :data:`repro.rl.policy.HIDDEN` (small networks keep tests fast)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(policy, "HIDDEN", tuple(hidden))
        return ActorNetwork(n_actions, rng)


def small_critic(state_dim, rng, hidden):
    """``CriticNetwork(state_dim, rng)`` with ``hidden`` layers."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(policy, "HIDDEN", tuple(hidden))
        return CriticNetwork(state_dim, rng)


class TestMLP:
    def test_shapes(self, rng):
        net = MLP([4, 8, 3], rng)
        out = net.predict(np.zeros((5, 4)))
        assert out.shape == (5, 3)

    def test_needs_two_sizes(self, rng):
        with pytest.raises(ValueError):
            MLP([4], rng)

    def test_gradient_check(self, rng):
        """Finite-difference check of backward() on a scalar loss."""
        net = MLP([3, 5, 2], rng)
        x = rng.standard_normal((4, 3))
        target = rng.standard_normal((4, 2))

        def loss_of():
            return 0.5 * float(np.sum((net.predict(x) - target) ** 2))

        out, cache = net.forward(x)
        weight_grads, bias_grads = net.backward(cache, out - target)
        grads = weight_grads + bias_grads
        params = net.parameters()
        epsilon = 1e-6
        for param, grad in zip(params, grads):
            flat_index = np.unravel_index(
                int(rng.integers(param.size)), param.shape
            )
            original = param[flat_index]
            param[flat_index] = original + epsilon
            up = loss_of()
            param[flat_index] = original - epsilon
            down = loss_of()
            param[flat_index] = original
            numeric = (up - down) / (2 * epsilon)
            assert abs(numeric - grad[flat_index]) < 1e-4, "gradient mismatch"


class TestAdam:
    def test_minimizes_quadratic(self):
        param = np.asarray([5.0])
        optimizer = Adam([param], learning_rate=0.1)
        for _ in range(200):
            optimizer.step([2 * param])
        assert abs(param[0]) < 0.05

    def test_gradient_count_check(self):
        param = np.zeros(2)
        optimizer = Adam([param])
        with pytest.raises(ValueError):
            optimizer.step([np.zeros(2), np.zeros(2)])


class TestSoftmaxMasking:
    def test_softmax_sums_to_one(self):
        p = softmax(np.asarray([[1.0, 2.0, 3.0]]))
        assert abs(p.sum() - 1.0) < 1e-12

    def test_masked_log_softmax_invalid_is_neg_inf(self):
        logits = np.asarray([[1.0, 2.0, 3.0]])
        mask = np.asarray([[True, False, True]])
        lp = masked_log_softmax_(logits.copy(), mask)
        assert lp[0, 1] == -np.inf
        assert abs(np.exp(lp[0, [0, 2]]).sum() - 1.0) < 1e-12

    def test_all_masked_rejected(self):
        with pytest.raises(ValueError):
            masked_log_softmax_(np.zeros((1, 3)), np.zeros((1, 3), dtype=bool))

    def test_extreme_logits_stable(self):
        lp = masked_log_softmax_(np.asarray([[1e4, -1e4]]), np.ones((1, 2), dtype=bool))
        assert np.isfinite(lp[0, 0])


class TestReturnsAdvantages:
    def test_discounted_returns(self):
        returns = discounted_returns([1.0, 1.0, 1.0], gamma=0.5)
        assert np.allclose(returns, [1.75, 1.5, 1.0])

    def test_gamma_one_is_suffix_sum(self):
        returns = discounted_returns([1.0, 2.0, 3.0], gamma=1.0)
        assert np.allclose(returns, [6.0, 5.0, 3.0])

    def test_gae_zero_lambda_is_td(self):
        rewards = [1.0, 0.0]
        values = [0.5, 0.25]
        adv = gae_advantages(rewards, values, gamma=1.0, lam=0.0)
        assert np.allclose(adv, [1 + 0.25 - 0.5, 0 + 0 - 0.25])

    def test_gae_shapes(self):
        adv = gae_advantages([1.0] * 5, [0.0] * 5, 0.99, 0.95)
        assert adv.shape == (5,)


class TestPolicyNetworks:
    def test_sample_respects_mask(self, rng):
        actor = small_actor(6, rng, (8,))
        mask = np.asarray([True, False, True, False, False, False])
        for _ in range(30):
            decision = actor.sample(np.zeros(6), mask, rng)
            assert mask[decision.action]

    def test_greedy_respects_mask(self, rng):
        actor = small_actor(4, rng, (8,))
        mask = np.asarray([False, False, True, False])
        assert actor.greedy(np.zeros(4), mask) == 2

    def test_log_prob_consistency(self, rng):
        actor = small_actor(5, rng, (8,))
        mask = np.ones(5, dtype=bool)
        decision = actor.sample(np.zeros(5), mask, rng)
        assert abs(np.exp(decision.log_prob) - decision.probabilities[decision.action]) < 1e-9

    def test_temperature_flattens(self, rng):
        actor = small_actor(5, rng, (8,))
        mask = np.ones(5, dtype=bool)
        state = rng.standard_normal(5)
        cold = actor.distribution(state[None], mask[None], temperature=0.1)[1][0]
        hot = actor.distribution(state[None], mask[None], temperature=10.0)[1][0]

        def entropy(p):
            return -np.sum(p * np.log(np.where(p > 0, p, 1.0)))

        assert entropy(hot) > entropy(cold)

    def test_critic_scalar_output(self, rng):
        critic = small_critic(5, rng, (8,))
        values = critic.value(np.zeros((3, 5)))
        assert values.shape == (3,)


class _BanditEnv(Environment):
    """3-armed bandit as an episodic env: one step per episode."""

    REWARDS = [0.1, 0.9, 0.2]

    @property
    def n_actions(self):
        return 3

    def reset(self):
        return np.zeros(3), np.ones(3, dtype=bool)

    def step(self, action):
        return np.zeros(3), self.REWARDS[action], True, np.zeros(3, dtype=bool)


def _train_bandit(config: PPOConfig, n_iterations: int = 40, seed: int = 3) -> float:
    rng = np.random.default_rng(seed)
    actor = small_actor(3, rng, (16,))
    critic = small_critic(3, rng, (16,)) if config.use_critic else None
    updater = PPOUpdater(actor, critic, config, rng=np.random.default_rng(seed + 1))
    collector = MultiActorCollector(
        _BanditEnv, actor, critic, make_actor_specs(2, seed=seed + 2)
    )
    reward = 0.0
    for _ in range(n_iterations):
        buffer = RolloutBuffer()
        reward = collector.collect(8, buffer)
        updater.update(buffer.build(use_critic=config.use_critic))
    return reward


class TestPPOVariants:
    def test_ppo_learns_bandit(self):
        config = PPOConfig(learning_rate=5e-3, update_epochs=4, minibatch_size=16)
        assert _train_bandit(config) > 0.7

    def test_a2c_learns_bandit(self):
        config = PPOConfig(learning_rate=5e-3, use_clip=False)
        assert _train_bandit(config) > 0.7

    def test_reinforce_learns_bandit(self):
        config = PPOConfig(learning_rate=5e-3, use_clip=False, use_critic=False)
        assert _train_bandit(config) > 0.6

    def test_use_critic_requires_critic(self, rng):
        actor = ActorNetwork(3, rng)
        with pytest.raises(ValueError):
            PPOUpdater(actor, None, PPOConfig(use_critic=True))

    def test_update_stats_populated(self, rng):
        config = PPOConfig(learning_rate=1e-3)
        actor = small_actor(3, rng, (8,))
        critic = small_critic(3, rng, (8,))
        updater = PPOUpdater(actor, critic, config, rng=rng)
        collector = MultiActorCollector(
            _BanditEnv, actor, critic, make_actor_specs(1, seed=0)
        )
        buffer = RolloutBuffer()
        collector.collect(4, buffer)
        stats = updater.update(buffer.build())
        assert stats.n_samples == 4
        assert stats.entropy > 0


class TestNonFiniteUpdateFailsLoudly:
    """No strict mode: every update checks its own losses."""

    @staticmethod
    def _updater_and_batch(seed, n_actions, n):
        rng = np.random.default_rng(seed)
        actor = small_actor(n_actions, rng, [8])
        critic = small_critic(n_actions, rng, [8])
        updater = PPOUpdater(
            actor, critic, PPOConfig(minibatch_size=4, update_epochs=1), rng
        )
        batch = RolloutBatch(
            states=rng.normal(size=(n, n_actions)),
            actions=rng.integers(0, n_actions, size=n),
            old_log_probs=np.full(n, -1.0),
            returns=rng.normal(size=n),
            advantages=rng.normal(size=n),
            masks=np.ones((n, n_actions), dtype=bool),
        )
        return updater, batch

    def test_poisoned_ppo_batch_raises(self):
        updater, batch = self._updater_and_batch(3, n_actions=4, n=12)
        batch.advantages[5] = np.nan
        with pytest.raises(NonFiniteUpdateError, match="policy_loss is nan"):
            updater.update(batch)
        assert issubclass(NonFiniteUpdateError, ValueError)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_poisoned_returns_name_the_value_loss(self):
        updater, batch = self._updater_and_batch(3, n_actions=4, n=12)
        batch.returns[2] = np.inf
        with pytest.raises(NonFiniteUpdateError, match="value_loss is (inf|nan)"):
            updater.update(batch)

    def test_clean_ppo_batch_trains(self):
        updater, batch = self._updater_and_batch(4, n_actions=3, n=8)
        stats = updater.update(batch)
        assert stats.n_samples == 8
        for name in ("policy_loss", "value_loss", "entropy", "kl_divergence"):
            assert np.isfinite(getattr(stats, name)), name


class TestRolloutBuffer:
    def _trajectory(self, n=3):
        trajectory = Trajectory()
        for i in range(n):
            trajectory.append(
                state=np.zeros(2), action=i % 2, reward=1.0,
                log_prob=-0.5, value=0.1, mask=np.ones(2, dtype=bool),
            )
        return trajectory

    def test_empty_trajectory_rejected(self):
        buffer = RolloutBuffer()
        with pytest.raises(ValueError):
            buffer.add(Trajectory())

    def test_build_empty_rejected(self):
        with pytest.raises(ValueError):
            RolloutBuffer().build()

    def test_flatten_counts(self):
        buffer = RolloutBuffer()
        buffer.add(self._trajectory(3))
        buffer.add(self._trajectory(2))
        assert len(buffer) == 5
        assert len(buffer._trajectories) == 2
        batch = buffer.build()
        assert len(batch) == 5

    def test_advantage_normalization(self):
        buffer = RolloutBuffer()
        buffer.add(self._trajectory(10))
        batch = buffer.build()
        assert abs(batch.advantages.mean()) < 1e-9

    def test_reinforce_advantages_are_returns(self, monkeypatch):
        monkeypatch.setattr(rollout, "GAMMA", 1.0)
        buffer = RolloutBuffer()
        buffer.add(self._trajectory(3))
        batch = buffer.build(use_critic=False)
        assert np.allclose(batch.returns, [3.0, 2.0, 1.0])
        # The advantage is the return, standardized over the batch.
        returns = batch.returns
        assert np.allclose(batch.advantages, (returns - returns.mean()) / returns.std())


class TestActorSpecs:
    def test_temperature_spread(self):
        specs = make_actor_specs(4, seed=0)
        temperatures = [s.temperature for s in specs]
        assert temperatures == sorted(temperatures)
        assert temperatures[0] < 1.0 < temperatures[-1]

    def test_single_actor_neutral(self):
        specs = make_actor_specs(1, seed=0)
        assert specs[0].temperature == 1.0

    def test_independent_rngs(self):
        specs = make_actor_specs(2, seed=0)
        a = specs[0].rng.integers(0, 1000, 5)
        b = specs[1].rng.integers(0, 1000, 5)
        assert not np.array_equal(a, b)

    def test_zero_actors_rejected(self):
        with pytest.raises(ValueError):
            make_actor_specs(0, seed=0)
