"""Sampling primitives.

``variational_subsample`` is the stand-in for VerdictDB's variational
subsampling (paper Alg. 1 line 4): it reduces the output of the executed
query representatives to a tractable action-space seed while preserving
per-stratum representation — rare strata keep at least one member, and
inclusion probabilities are retained so downstream consumers (the Verdict
baseline) can rescale aggregate answers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Hashable, Sequence

import numpy as np


@dataclass
class SubsampleResult:
    """Outcome of a stratified subsample.

    ``positions`` index into the input; ``inclusion_probability[i]`` is the
    probability with which position ``positions[i]`` was kept — the
    Horvitz–Thompson weight ``1/p`` rescales aggregates computed on the
    sample back to the population.
    """

    positions: np.ndarray
    inclusion_probability: np.ndarray

    def __len__(self) -> int:
        return len(self.positions)


def variational_subsample(
    keys: Sequence[Hashable],
    target_size: int,
    rng: np.random.Generator,
) -> SubsampleResult:
    """Stratified probabilistic subsampling.

    Parameters
    ----------
    keys:
        One stratum key per input position (e.g. which query representative
        produced the tuple, or a group-by key).
    target_size:
        Desired total sample size. Every stratum keeps at least one member
        (so the result can exceed the target when there are many tiny
        strata).
    rng:
        Source of randomness.
    """
    n = len(keys)
    if n == 0 or target_size <= 0:
        return SubsampleResult(
            positions=np.empty(0, dtype=np.int64),
            inclusion_probability=np.empty(0, dtype=np.float64),
        )
    if target_size >= n:
        return SubsampleResult(
            positions=np.arange(n, dtype=np.int64),
            inclusion_probability=np.ones(n, dtype=np.float64),
        )

    if not (isinstance(keys, np.ndarray) and keys.dtype.kind in "iu"):
        # Intern to first positions with Python's ==/hash; map() runs the
        # dict lookups at C level, without a frame per key.
        first: dict[Hashable, int] = {}
        keys = np.fromiter(map(first.setdefault, keys, count()), dtype=np.int64, count=n)
    # Strata: ascending member positions, in first-occurrence order (the
    # order the rng.choice calls below are issued in).
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    strata = sorted(
        np.split(order, np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1),
        key=lambda members: members[0],
    )
    # Allocate the budget proportionally to sqrt(stratum size): small strata
    # are over-represented relative to their population share, which is the
    # behaviour the paper relies on (tuples from small query results matter
    # more, challenge C3).
    weights = [np.sqrt(len(members)) for members in strata]
    total_weight = sum(weights)

    picked: list[np.ndarray] = []
    probabilities: list[np.ndarray] = []
    for members, weight in zip(strata, weights):
        size = len(members)
        quota = min(max(1, int(round(target_size * weight / total_weight))), size)
        picked.append(rng.choice(members, size=quota, replace=False))
        probabilities.append(np.full(quota, quota / size))

    positions = np.concatenate(picked)
    order = np.argsort(positions)
    return SubsampleResult(
        positions=positions[order],
        inclusion_probability=np.concatenate(probabilities)[order],
    )

