"""Unit tests of the speed probe: the arithmetic on synthetic samples, and
that starting and stopping it leaves the process as it was."""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np
import pytest

from benchmarks.e2e.probe import CLIP, MIN_WINDOW_S, NOMINAL_COSTS_S, SpeedProbe

NOMINAL_COST_S = float(NOMINAL_COSTS_S.sum())


def _adjusted_one(probe: SpeedProbe, start: float, end: float) -> float:
    return float(probe.adjusted([start], [end])[0])


def _probe_with(samples: list[tuple[float, float]]) -> SpeedProbe:
    """A probe that 'took' the given (start, slowdown) samples."""
    probe = SpeedProbe()
    for start, slowdown in samples:
        probe._costs.append(tuple(slowdown * NOMINAL_COSTS_S))
        probe._starts.append(start)
    return probe


def test_long_interval_uses_exactly_the_samples_inside_it():
    inside = [(10.0 + 0.02 * i, 2.0) for i in range(50)]       # 10.00 .. 10.98
    outside = [(9.0 + 0.02 * i, 9.0) for i in range(50)] + [   # much slower, ignored
        (11.0 + 0.02 * i, 9.0) for i in range(50)
    ]
    probe = _probe_with(sorted(inside + outside))
    adjusted = _adjusted_one(probe, 9.999, 10.999)
    busy = 1.0 - 50 * 2.0 * NOMINAL_COST_S     # the samples' own cost is not the program's
    assert adjusted == pytest.approx(busy / 2.0)


def test_short_interval_takes_its_slowdown_from_a_window_around_it():
    samples = [(5.0 + 0.02 * i, 1.0 if i < 50 else 3.0) for i in range(100)]  # 5.0 .. 6.98
    probe = _probe_with(samples)
    early, late = probe.adjusted([5.505, 6.505], [5.506, 6.506])
    assert early == pytest.approx(0.001 / 1.0)
    assert late == pytest.approx(0.001 / 3.0)
    # A window of MIN_WINDOW_S straddling the change sees both speeds.
    middle = _adjusted_one(probe, 5.995, 5.996)
    assert 0.001 / 3.0 < middle < 0.001 / 1.0
    assert MIN_WINDOW_S < 0.5


def test_sparse_neighbourhood_is_widened_to_the_nearest_samples():
    probe = _probe_with([(float(i), 2.0) for i in range(20)])   # one sample a second
    assert _adjusted_one(probe, 7.4, 7.5) == pytest.approx(0.1 / 2.0)


def test_an_undisturbed_machine_changes_nothing():
    probe = _probe_with([(0.02 * i, 1.0) for i in range(200)])
    starts = np.array([0.005, 1.005])
    ends = np.array([0.015, 3.005])
    inside = np.array([0, 100])     # samples whose start falls inside each interval
    expected = (ends - starts) - inside * NOMINAL_COST_S
    assert probe.adjusted(starts, ends) == pytest.approx(expected)


def test_parts_combine_geometrically_and_stalls_are_clipped():
    probe = SpeedProbe()
    for i in range(100):
        probe._costs.append((4.0 * NOMINAL_COSTS_S[0], 1.0 * NOMINAL_COSTS_S[1]))
        probe._starts.append(0.02 * i + 0.01)
    assert probe.mean_slowdown() == pytest.approx(2.0)        # sqrt(4 x 1)
    assert _adjusted_one(probe, 0.0, 2.0) == pytest.approx(
        (2.0 - 100 * (4.0 * NOMINAL_COSTS_S[0] + NOMINAL_COSTS_S[1])) / 2.0
    )
    # One sample in a hundred was descheduled for a long time: it counts as
    # CLIP times nominal towards the slowdown, and in full towards the cost.
    probe._costs[50] = (1000.0 * NOMINAL_COSTS_S[0], 1000.0 * NOMINAL_COSTS_S[1])
    slowed = np.sqrt((99 * 4.0 + CLIP) / 100 * (99 * 1.0 + CLIP) / 100)
    assert probe.mean_slowdown() == pytest.approx(slowed)
    assert slowed < 2.1


def test_too_few_samples_is_an_error():
    with pytest.raises(RuntimeError):
        _adjusted_one(_probe_with([(0.0, 1.0)]), 0.0, 1.0)


def test_start_and_stop_restore_the_timer_and_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    probe = SpeedProbe(interval_s=0.005)
    with pytest.raises(ZeroDivisionError):
        with probe:
            assert signal.getitimer(signal.ITIMER_REAL)[1] == pytest.approx(0.005)
            start = perf_counter()
            while perf_counter() - start < 0.2:
                sum(range(1000))
            end = perf_counter()
            1 / 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(probe.to_lists()["starts"]) >= 10
    assert _adjusted_one(probe, start, end) > 0.0
    assert probe.mean_slowdown() > 0.5
