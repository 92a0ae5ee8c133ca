"""Inference: generating the approximation set (paper Alg. 2).

Tuple selection is sequential: while the set is below the memory budget,
sample the next action from the trained policy (with masking), append its
tuples, and stop at the budget. A deterministic greedy mode takes the
arg-max action instead, which is what the benchmarks use for
reproducibility. The set comes back as the action space's key ids;
:meth:`~repro.core.action_space.ActionSpace.approximation` turns them into
tuples.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..rl.policy import ActorNetwork
from .action_space import ActionSpace
from .config import ASQPConfig


def generate_approximation_set(
    actor: ActorNetwork,
    action_space: ActionSpace,
    config: ASQPConfig,
    rng: Optional[np.random.Generator] = None,
    greedy: bool = True,
) -> np.ndarray:
    """Roll the trained policy out into an approximation set (Alg. 2): the
    ascending key ids of ``action_space`` it holds.

    The ``req_size`` of Alg. 2 is the memory budget ``k``.

    Parameters
    ----------
    greedy:
        Take the arg-max valid action (deterministic); otherwise sample
        from the policy distribution.
    """
    if len(action_space) != actor.n_actions:
        raise ValueError(
            f"action space size {len(action_space)} does not match the "
            f"actor's {actor.n_actions} actions"
        )
    budget = config.memory_budget
    rng = rng or np.random.default_rng(config.seed)

    # Between two steps the multi-hot input changes in one position, so the
    # first layer is a running sum, pre = b0 + Σ W0[a] over the selected
    # actions: one row of W0 a step instead of a gemv over all |A| rows.
    net = actor.net
    pre = net.biases[0].copy()
    selected = np.zeros(actor.n_actions, dtype=bool)
    probs = np.empty(actor.n_actions)
    key_ids, offsets = action_space.key_ids, action_space.offsets
    held = np.zeros(action_space.total_distinct_tuples(), dtype=bool)
    size = 0
    for _ in range(actor.n_actions):  # after |A| steps the mask is empty
        if size >= budget:
            break
        logits = net.predict_from_first(pre.copy())
        action = choose(logits, selected, probs, None if greedy else rng.random())
        selected[action] = True
        pre += net.weights[0][action]
        ids = key_ids[offsets[action]:offsets[action + 1]]
        new = ids[~held[ids]]
        if len(new) > budget - size:
            # Trim the final group, in key order, so Σ|S_i| never exceeds
            # the budget.
            new = new[: budget - size]
        held[new] = True
        size = int(np.count_nonzero(held))  # an action may repeat a key
    return np.flatnonzero(held)


def choose(
    logits: np.ndarray, selected: np.ndarray, probs: np.ndarray, uniform: Optional[float]
) -> int:
    """One row's next action: the arg-max, or the draw at ``uniform``.

    ``masked_log_softmax_`` / ``masked_softmax`` + ``draw_actions`` on 1-D
    arrays, the same ufuncs in the same order; ``logits`` and ``probs``
    (scratch, |A| long) are overwritten.
    """
    np.copyto(logits, -np.inf, where=selected)
    logits -= logits.max()
    np.exp(logits, out=probs)
    if uniform is None:
        logits -= np.log(probs.sum())
        return int(logits.argmax())
    probs /= probs.sum()
    probs.cumsum(out=probs)
    probs /= probs[-1]
    return int(np.count_nonzero(probs <= uniform))
