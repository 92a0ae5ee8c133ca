"""Inference: generating the approximation set (paper Alg. 2).

Tuple selection is sequential: while the set is below the requested size,
sample the next action from the trained policy (with masking), append its
tuples, and stop at the budget. A deterministic greedy mode takes the
arg-max action instead, which is what the benchmarks use for
reproducibility.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..rl.policy import ActorNetwork
from .action_space import ActionSpace
from .approximation import ApproximationSet
from .config import ASQPConfig


def generate_approximation_set(
    actor: ActorNetwork,
    action_space: ActionSpace,
    config: ASQPConfig,
    requested_size: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    greedy: bool = True,
) -> ApproximationSet:
    """Roll the trained policy out into an approximation set (Alg. 2).

    Parameters
    ----------
    requested_size:
        The ``req_size`` of Alg. 2; defaults to the memory budget ``k``.
    greedy:
        Take the arg-max valid action (deterministic); otherwise sample
        from the policy distribution.
    """
    if len(action_space) != actor.n_actions:
        raise ValueError(
            f"action space size {len(action_space)} does not match the "
            f"actor's {actor.n_actions} actions"
        )
    budget = requested_size if requested_size is not None else config.memory_budget
    if budget < 1:
        raise ValueError(f"requested size must be >= 1, got {budget}")
    rng = rng or np.random.default_rng(config.seed)

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
        keys = list(action_space.keys_of(action))
        remaining = budget - approx.total_size()
        new_keys = [key for key in keys if key not in approx]
        if len(new_keys) > remaining:
            # Trim the final group so Σ|S_i| never exceeds the budget.
            new_keys = new_keys[:remaining]
        approx.add_keys(new_keys)
    return approx
