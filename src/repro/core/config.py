"""ASQP-RL configuration.

The defaults are the configuration this reproduction measures: every
figure, every end-to-end benchmark workload and every CLI run starts from
``ASQPConfig()`` or ``ASQPConfig.light()``. They keep the paper's problem
size and coefficients and scale its run to this simulator's smaller
networks: learning rate 1e-3, 45 iterations with patience 12, one episode
per actor, batches of 16 queries, 800 actions with 80% exact rows, and 12
candidate rollouts. The paper's own §6.1 values are k=1000, F=50, learning
rate 5e-5, KL coefficient 0.2, entropy coefficient 0.001, an actor of an
input layer + 2 fully-connected layers + softmax, and 32 parallel
actor-learners (8 logical actors here; see DESIGN.md §2 on the Ray
substitution).

``light()`` is ASQP-Light (§4.5): 25% of the training queries, a higher
learning rate, fewer iterations, an earlier stop, a smaller action space
and fewer candidate rollouts. Its cost is Fig. 2's measured Light row
(EXPERIMENTS.md). ``adaptive()`` implements the Adaptive Configuration
knob: it interpolates every field on which the two presets differ.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
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
    action_space_target: int = 800     # subsampled action-space size (groups)
    group_size: int = 4                # result rows bundled per action
    exact_row_share: float = 0.8       # subsample budget share for exact result rows

    # RL (paper §5 / §6.1).
    learning_rate: float = 1e-3        # paper: 5e-5
    kl_coef: float = 0.2
    entropy_coef: float = 0.001
    n_actors: int = 8                  # paper: 32 async actor-critics
    episodes_per_actor: int = 1
    n_iterations: int = 45             # outer PPO iterations
    update_epochs: int = 4
    query_batch_size: int = 16         # queries per reward batch (Alg. 1 line 6)
    early_stopping_patience: int = 12

    # Ablation switches (paper Fig. 3).
    environment: str = "gsl"           # "gsl" | "drp" | "drp+gsl"
    gsl_delta_rewards: bool = True     # telescoped GSL reward (same optimum)
    use_ppo_clip: bool = True          # False => "-ppo" variant (no KL term either)
    use_actor_critic: bool = True      # False => "-ppo -ac" (REINFORCE)
    drp_horizon: int = 200             # scaled-down DRP horizon

    # Inference / estimator / drift (paper §4.4).
    n_candidate_rollouts: int = 12     # sampled rollouts competing with greedy
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
        """ASQP-Light (§4.5): Fig. 2's Light row, trained on all
        representatives of a quarter of the training queries."""
        settings = dict(
            training_fraction=0.25,
            learning_rate=2e-3,
            n_iterations=16,
            early_stopping_patience=5,
            action_space_target=500,
            n_candidate_rollouts=6,
        )
        settings.update(overrides)
        return cls(**settings)

    @classmethod
    def adaptive(cls, time_budget_fraction: float, **overrides) -> "ASQPConfig":
        """Adaptive Configuration (§4.5): interpolate light ↔ full.

        ``time_budget_fraction`` in [0, 1]: 0 is ``light()``, 1 is
        ``ASQPConfig()``; each field the two differ on moves linearly
        between them, integer fields rounded.
        """
        f = float(min(1.0, max(0.0, time_budget_fraction)))
        light, full = asdict(cls.light()), asdict(cls())
        settings = {}
        for name, low in light.items():
            high = full[name]
            if low != high:
                value = low * (1 - f) + high * f
                settings[name] = int(round(value)) if isinstance(high, int) else value
        settings.update(overrides)
        return cls(**settings)
