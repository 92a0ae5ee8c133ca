"""ASQP-RL configuration.

Defaults follow the paper's §6.1 hyper-parameter section: k=1000, F=50,
learning rate 5e-5, KL coefficient 0.2, entropy coefficient 0.001, actor =
input layer + 2 fully-connected layers + softmax. The paper's 32 parallel
actor-learners scale down to 8 logical actors by default (configurable) —
see DESIGN.md §2 on the Ray substitution.

``light()`` is ASQP-Light (§4.5): 25% of the training queries, a much
higher learning rate, and an earlier stopping threshold — about half the
setup time for ~10% quality loss. ``adaptive()`` implements the Adaptive
Configuration knob: interpolates between light and full settings given a
time budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: Smallest valid value of each count-valued knob, and the name an error
#: gives it besides the field's own.
_AT_LEAST = {
    "memory_budget": (1, "memory budget k"),
    "frame_size": (1, "frame size F"),
    "action_space_target": (1, "action-space size"),
    "group_size": (1, "group size"),
    "n_actors": (1, "actor count"),
    "episodes_per_actor": (1, "episodes per actor"),
    "n_iterations": (1, "iteration count"),
    "query_batch_size": (1, "query batch size"),
    "drp_horizon": (1, "DRP horizon"),
    "n_candidate_rollouts": (0, "candidate rollout count"),
}


@dataclass
class ASQPConfig:
    """The knobs of the ASQP-RL system that a preset, benchmark or CLI flag
    varies; every other hyper-parameter is the default of the layer that
    reads it (embedding dimension, network widths, PPO clip and minibatch,
    discounting, relaxation widths, estimator and drift thresholds)."""

    # Problem parameters (paper §3).
    memory_budget: int = 1000          # k: max tuples in the approximation set
    frame_size: int = 50               # F: rows a user can cognitively process

    # Pre-processing (paper §4.2).
    n_query_representatives: Optional[int] = None  # |Q̂|; None = all (paper default)
    training_fraction: float = 1.0     # fraction of training queries executed
    action_space_target: int = 600     # subsampled action-space size (groups)
    group_size: int = 4                # result rows bundled per action
    exact_row_share: float = 0.7       # subsample budget share for exact result rows

    # RL (paper §5 / §6.1).
    learning_rate: float = 5e-5
    kl_coef: float = 0.2
    entropy_coef: float = 0.001
    n_actors: int = 8                  # paper: 32 async actor-critics
    episodes_per_actor: int = 2
    n_iterations: int = 40             # outer PPO iterations
    update_epochs: int = 4
    query_batch_size: int = 8          # queries per reward batch (Alg. 1 line 6)
    early_stopping_patience: int = 8

    # Ablation switches (paper Fig. 3).
    environment: str = "gsl"           # "gsl" | "drp" | "drp+gsl"
    gsl_delta_rewards: bool = True     # telescoped GSL reward (same optimum)
    use_ppo_clip: bool = True          # False => "-ppo" variant (no KL term either)
    use_actor_critic: bool = True      # False => "-ppo -ac" (REINFORCE)
    drp_horizon: int = 200             # scaled-down DRP horizon

    # Inference / estimator / drift (paper §4.4).
    n_candidate_rollouts: int = 8      # sampled rollouts competing with greedy
    fine_tune_iterations: int = 10

    seed: int = 0

    def __post_init__(self) -> None:
        for name, (low, label) in _AT_LEAST.items():
            value = getattr(self, name)
            if value < low:
                raise ValueError(f"{label} ({name}) must be >= {low}, got {value}")
        if not 0 < self.training_fraction <= 1:
            raise ValueError(
                f"training fraction must be in (0, 1], got {self.training_fraction}"
            )
        if not 0 <= self.exact_row_share <= 1:
            raise ValueError(
                f"exact-row share (exact_row_share) must be in [0, 1], "
                f"got {self.exact_row_share}"
            )
        if self.environment not in ("gsl", "drp", "drp+gsl"):
            raise ValueError(
                f"environment must be gsl, drp or drp+gsl, got {self.environment!r}"
            )

    # ---------------------------------------------------------------- #
    @classmethod
    def light(cls, **overrides) -> "ASQPConfig":
        """ASQP-Light (§4.5): ~½ the setup time, ~10% quality loss."""
        settings = dict(
            training_fraction=0.25,
            learning_rate=0.1,
            n_iterations=15,
            early_stopping_patience=3,
            n_query_representatives=12,
            episodes_per_actor=1,
        )
        settings.update(overrides)
        return cls(**settings)

    @classmethod
    def adaptive(cls, time_budget_fraction: float, **overrides) -> "ASQPConfig":
        """Adaptive Configuration (§4.5): interpolate light ↔ full.

        ``time_budget_fraction`` in [0, 1]: 0 = lightest, 1 = full quality.
        """
        f = float(min(1.0, max(0.0, time_budget_fraction)))
        settings = dict(
            training_fraction=0.25 + 0.75 * f,
            learning_rate=10 ** (-1 - 3.3 * f),   # 1e-1 .. ~5e-5
            n_iterations=int(round(15 + 25 * f)),
            early_stopping_patience=int(round(3 + 5 * f)),
            n_query_representatives=int(round(12 + 12 * f)),
            episodes_per_actor=1 if f < 0.5 else 2,
        )
        settings.update(overrides)
        return cls(**settings)
