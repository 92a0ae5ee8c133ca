"""Unit tests for repro.core.config."""

from dataclasses import asdict, fields, replace

import numpy as np
import pytest

from repro.core import ASQPAgent, ASQPConfig
from repro.rl.rollout import RolloutBatch


def _update_stats(config, n_actions=5, n=12):
    """Actor weights and stats after one update of ``config``'s agent."""
    agent = ASQPAgent(n_actions, config)
    rng = np.random.default_rng(3)
    batch = RolloutBatch(
        states=rng.random((n, n_actions)) < 0.5,
        actions=rng.integers(0, n_actions, size=n),
        old_log_probs=np.full(n, -1.5),
        returns=rng.normal(size=n),
        advantages=rng.normal(size=n),
        masks=np.ones((n, n_actions), dtype=bool),
    )
    stats = agent.updater.update(batch)
    return agent.actor.net.weights, stats


class TestValidation:
    def test_defaults_valid(self):
        config = ASQPConfig()
        assert config.memory_budget == 1000
        assert config.frame_size == 50
        assert config.n_query_representatives is None  # all (paper §6.1)
        # The settable surface: a new knob is an edit here, on purpose.
        assert [field.name for field in fields(ASQPConfig)] == [
            "memory_budget", "frame_size", "n_query_representatives",
            "training_fraction", "action_space_target", "group_size",
            "exact_row_share", "learning_rate", "kl_coef", "entropy_coef",
            "n_actors", "episodes_per_actor", "n_iterations", "update_epochs",
            "query_batch_size", "early_stopping_patience", "environment",
            "gsl_delta_rewards", "use_ppo_clip", "use_actor_critic",
            "drp_horizon", "n_candidate_rollouts", "fine_tune_iterations",
            "seed",
        ]

    def test_bad_budget(self):
        with pytest.raises(ValueError, match="memory budget"):
            ASQPConfig(memory_budget=0)

    def test_bad_frame(self):
        with pytest.raises(ValueError, match="frame size"):
            ASQPConfig(frame_size=0)

    def test_bad_training_fraction(self):
        with pytest.raises(ValueError):
            ASQPConfig(training_fraction=0.0)
        with pytest.raises(ValueError):
            ASQPConfig(training_fraction=1.5)

    def test_bad_environment(self):
        with pytest.raises(ValueError, match="environment"):
            ASQPConfig(environment="nope")

    def test_bad_group_size(self):
        with pytest.raises(ValueError):
            ASQPConfig(group_size=0)

    @pytest.mark.parametrize("field, value", [
        ("n_iterations", 0),
        ("n_iterations", -2),
        ("n_actors", 0),
        ("episodes_per_actor", 0),
        ("query_batch_size", 0),
        ("action_space_target", 0),
        ("drp_horizon", 0),
        ("n_candidate_rollouts", -1),
        ("exact_row_share", -0.5),
        ("exact_row_share", 1.5),
    ])
    def test_degenerate_value_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ASQPConfig(**{field: value})

    def test_boundary_values_accepted(self):
        ASQPConfig(n_candidate_rollouts=0, exact_row_share=0.0)
        ASQPConfig(exact_row_share=1.0, n_iterations=1, n_actors=1)

    def test_no_ppo_zeroes_kl(self):
        weights, stats = _update_stats(ASQPConfig(use_ppo_clip=False, kl_coef=0.5))
        zero_weights, _ = _update_stats(ASQPConfig(use_ppo_clip=False, kl_coef=0.0))
        assert stats.kl_divergence == 0.0
        for w, z in zip(weights, zero_weights):
            np.testing.assert_array_equal(w, z)
        # The clipped update does add it, so the comparison above can fail.
        _, clip_stats = _update_stats(ASQPConfig(kl_coef=0.5))
        assert clip_stats.kl_divergence != 0.0

    def test_kl_coef_survives_a_round_trip_through_no_ppo(self):
        config = replace(ASQPConfig(use_ppo_clip=False), use_ppo_clip=True)
        assert config.kl_coef == 0.2


class TestPresets:
    def test_light_is_faster_profile(self):
        light = ASQPConfig.light()
        full = ASQPConfig()
        assert light.training_fraction < full.training_fraction
        assert light.learning_rate > full.learning_rate
        assert light.n_iterations < full.n_iterations

    def test_light_accepts_overrides(self):
        light = ASQPConfig.light(memory_budget=77)
        assert light.memory_budget == 77

    def test_adaptive_endpoints(self):
        assert asdict(ASQPConfig.adaptive(0.0)) == asdict(ASQPConfig.light())
        assert asdict(ASQPConfig.adaptive(1.0)) == asdict(ASQPConfig())

    def test_adaptive_clamps(self):
        assert ASQPConfig.adaptive(-1.0).training_fraction == pytest.approx(0.25)
        assert ASQPConfig.adaptive(2.0).training_fraction == pytest.approx(1.0)

    def test_adaptive_monotone_in_budget(self):
        light, full = asdict(ASQPConfig.light()), asdict(ASQPConfig())
        varied = [name for name in full if light[name] != full[name]]
        assert "learning_rate" in varied and "training_fraction" in varied
        steps = [asdict(ASQPConfig.adaptive(f)) for f in (0.0, 0.25, 0.5, 0.75, 1.0)]
        for name in varied:
            values = [step[name] for step in steps]
            assert values in (sorted(values), sorted(values, reverse=True)), name
