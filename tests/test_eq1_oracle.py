"""An exact Eq. 1 oracle: the training score's optimum over every key set of
at most ``k`` tuples, as a mixed-integer program.

Built from a :class:`CoverageIndex`'s arrays: a binary ``x`` per key, a
binary ``y`` per requirement row (``y_r <= x_key`` for each of its keys),
and per query a ``z_q`` in [0, 1] with ``z_q * denominator_q <= sum of its
rows' y`` — ``min(1, covered / denominator)`` at the optimum. The model
maximises the tracker's weighted mean of ``z`` under ``sum(x) <= k``.
``scipy.optimize.milp`` (HiGHS) solves it; on coverages of at most 12
distinct keys it must equal a brute-force enumeration of every key set,
and GRE's training Eq. 1 can only be below it.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.baselines.greedy import greedy_set
from repro.core.reward import CoverageIndex, CoverageTracker, QueryCoverage
from tests.test_kernels import _coverages


def _terms(coverages):
    weights = np.asarray([c.weight for c in coverages], dtype=np.float64)
    denoms = np.asarray([c.denominator for c in coverages], dtype=np.float64)
    return weights / weights.sum(), denoms, denoms <= 0


def milp_optimum(coverages, k):
    """``(best training Eq. 1, key ids of a set that reaches it)``."""
    index = CoverageIndex(coverages)
    weights, denoms, empty = _terms(coverages)
    n_keys, n_rows, n_queries = index.n_keys, len(index.row_query), len(coverages)
    x, y, z = 0, n_keys, n_keys + n_rows  # variable blocks
    n_vars = n_keys + n_rows + n_queries
    rows, constraints = [], []
    # y_r - x_key <= 0 for every key a row requires.
    key_of_entry = np.repeat(np.arange(n_keys), np.diff(index.inc_offsets))
    for key, row in zip(key_of_entry.tolist(), index.inc_rows.tolist()):
        a = np.zeros(n_vars)
        a[y + row], a[x + key] = 1, -1
        rows.append(a)
    upper = [0.0] * len(rows)
    # sum(x) <= k
    a = np.zeros(n_vars)
    a[x:y] = 1
    rows.append(a)
    upper.append(k)
    # z_q * denominator_q - sum of query q's y <= 0 (an empty answer's term is 1).
    for q in np.flatnonzero(~empty).tolist():
        a = np.zeros(n_vars)
        a[z + q] = denoms[q]
        a[y + np.flatnonzero(index.row_query == q)] = -1
        rows.append(a)
        upper.append(0.0)
    constraints.append(LinearConstraint(np.asarray(rows), -np.inf, upper))
    cost = np.zeros(n_vars)
    cost[z:] = -np.where(empty, 0.0, weights)
    integrality = np.r_[np.ones(n_keys + n_rows), np.zeros(n_queries)]
    upper_bounds = np.r_[np.ones(n_keys + n_rows), np.where(empty, 0.0, 1.0)]
    result = milp(
        cost, constraints=constraints, integrality=integrality,
        bounds=Bounds(np.zeros(n_vars), upper_bounds), options={"mip_rel_gap": 0},
    )
    assert result.success, result.message
    chosen = np.flatnonzero(result.x[x:y] > 0.5)
    return float(weights[empty].sum() - result.fun), chosen


def brute_force_optimum(coverages, k):
    """The best training Eq. 1 over every key set of at most ``k`` keys."""
    index = CoverageIndex(coverages)
    weights, denoms, empty = _terms(coverages)
    sets = np.asarray(
        list(itertools.product([False, True], repeat=index.n_keys)), dtype=bool
    ).reshape(2 ** index.n_keys, index.n_keys)
    sets = sets[sets.sum(axis=1) <= k]
    covered = np.zeros((len(sets), len(coverages)))
    for q, coverage in enumerate(coverages):
        key_ids = index.row_key_ids(coverage)  # rows x tables
        covered[:, q] = sets[:, key_ids].all(axis=2).sum(axis=1)
    safe = np.where(empty, 1.0, denoms)
    terms = np.where(empty, 1.0, np.minimum(1.0, covered / safe))
    return float((terms @ weights).max())


@given(coverages=_coverages(), k=st.integers(0, 13))
@settings(max_examples=100, deadline=None)
def test_milp_equals_brute_force_and_bounds_greedy(coverages, k):
    index = CoverageIndex(coverages)
    assert index.n_keys <= 12
    optimum, chosen = milp_optimum(coverages, k)
    assert optimum == pytest.approx(brute_force_optimum(coverages, k), abs=1e-9)
    # The solver's set is within budget and the tracker scores it the optimum.
    assert len(chosen) <= k
    tracker = CoverageTracker(coverages, index)
    keys = index.approximation(index.codes[chosen]).keys()
    assert tracker.score_with_keys(keys) == pytest.approx(optimum, abs=1e-9)
    # GRE is one feasible set, so at best the optimum.
    assert greedy_set(coverages, k).score <= optimum + 1e-9


def test_a_budget_that_binds():
    """Two one-table queries over disjoint keys, room for one query's keys:
    the optimum takes the heavier query, whole."""
    coverages = [
        QueryCoverage("light", 1.0, 2, ("a",), np.asarray([[0], [1]])),
        QueryCoverage("heavy", 3.0, 2, ("b",), np.asarray([[0], [1]])),
    ]
    optimum, chosen = milp_optimum(coverages, 2)
    assert optimum == pytest.approx(0.75)
    assert optimum == pytest.approx(brute_force_optimum(coverages, 2))
    assert len(chosen) == 2
