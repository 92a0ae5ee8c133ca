"""A speed probe: how much slower than usual the machine ran, and when.

The benchmark's machine is a few cores of a shared host. A fixed piece of
work takes 1x to 3x its quiet time there, in bursts of milliseconds whose
density drifts over seconds to minutes (README.md, "Machine noise"), and
process CPU time is as noisy as wall time, so neither a median over a run
nor a longer run steadies a timing.

So the benchmark measures the disturbance and divides it out. While a run
is timed, an interval timer interrupts the main thread every
``INTERVAL_S`` and the handler times a small fixed kernel of the
benchmark's own, in two parts that are what the measured program mostly
does and so slow down when it does: many short numpy calls on tiny arrays
(dispatch, not arithmetic), and interpreter work on tuples, dicts and sets.
Each sample is ``(start, cost of each part)``.

For a timed interval ``[start, end]`` of ``perf_counter`` readings:

* ``busy`` is ``end - start`` minus the cost of the samples taken inside
  it, i.e. the time the program itself had;
* each part's slowdown is the mean cost of its samples inside the interval
  (for an interval shorter than ``MIN_WINDOW_S``: in a window that wide
  around it) over its nominal cost, what it costs when nothing disturbs
  the machine; the interval's ``slowdown`` is their geometric mean;
* the *adjusted* time is ``busy / slowdown``: seconds at the speed of the
  undisturbed reference machine.

Nothing in the program is patched: the samples arrive by signal, between
two bytecodes of whatever is running.
"""

from __future__ import annotations

import signal
from time import perf_counter
from typing import Sequence

import numpy as np

#: Seconds between two samples. One sample costs ~0.9 ms, so 4-5% of a run.
INTERVAL_S = 0.020
#: What each part of the kernel costs when the machine is undisturbed: the
#: 1st percentile of 60 000 samples taken inside 40 benchmark runs on the
#: 2-vCPU box the baseline was recorded on. Adjusted times are seconds *at
#: this machine speed*; on other hardware they are off by one constant
#: factor, the same on both sides of any comparison.
NOMINAL_COSTS_S = np.array([0.000337, 0.000251])
#: The slowdown is the weighted geometric mean of the parts' slowdowns.
#: Equal weights fitted the program best (calibration: README.md).
WEIGHTS = np.array([0.5, 0.5])
#: A sample that took longer than this many times its nominal cost was
#: descheduled, not slowed down; it counts as this much. Such stalls are
#: rare and long, so the few that land on a sample say little about how
#: many landed on the program.
CLIP = 4.0
#: The slowdown of an interval shorter than this is taken from the samples
#: of a window this wide centred on it (ten samples); a longer interval
#: uses exactly the samples inside it. Wider windows tracked worse: the
#: disturbance changes within half a second.
MIN_WINDOW_S = 0.20
#: Fewer samples than this do not make a slowdown estimate.
MIN_SAMPLES = 5

_SMALL = [np.random.default_rng(i).integers(0, 50, size=40) for i in range(8)]


def _numpy_part() -> int:
    """Many short numpy calls on tiny arrays: dispatch, not arithmetic."""
    out = 0
    for a in _SMALL:
        u = np.unique(a)
        w = np.where(a > 20)[0]
        c = np.concatenate([a, u])
        o = np.argsort(c, kind="stable")
        hit = np.isin(a, u[:5])
        z = a.astype(np.float64) * 0.5
        z = np.exp(z - z.max())
        z /= z.sum()
        out += int(c[o][0]) + int(hit.sum()) + len(w)
        out += int(np.searchsorted(np.cumsum(z), 0.5))
    return out


def _python_part() -> int:
    """Interpreter work: loops, tuples, dict and set traffic."""
    table: dict[tuple[str, int], int] = {}
    total = 0
    for i in range(1800):
        key = ("t", i % 97)
        table[key] = table.get(key, 0) + i
        total += i * i
    members = {(name, count) for (name, _), count in table.items()}
    return total + len(members) + len(sorted(table.values()))


_PARTS = (_numpy_part, _python_part)


def _kernel() -> tuple[float, ...]:
    """Run every part once; seconds each took."""
    costs = []
    for part in _PARTS:
        start = perf_counter()
        part()
        costs.append(perf_counter() - start)
    return tuple(costs)


class SpeedProbe:
    """Samples `_kernel` on a timer while started; answers for intervals."""

    def __init__(self, interval_s: float = INTERVAL_S) -> None:
        self.interval_s = interval_s
        self._starts: list[float] = []
        self._costs: list[tuple[float, ...]] = []
        self._previous_handler = None

    # ------------------------------------------------------------ #
    def start(self) -> None:
        for _ in range(20):  # warm the kernel's own caches and code paths
            _kernel()
        self._previous_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._previous_handler is not None:
            signal.signal(signal.SIGALRM, self._previous_handler)
            self._previous_handler = None

    def __enter__(self) -> "SpeedProbe":
        self.start()
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()

    def _sample(self, _signum, _frame) -> None:
        start = perf_counter()
        self._costs.append(_kernel())
        self._starts.append(start)

    # ------------------------------------------------------------ #
    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Sample starts and per-part costs (one row a sample), as of now."""
        n = len(self._starts)  # appended last, so both lists have n entries
        return (
            np.asarray(self._starts[:n]),
            np.asarray(self._costs[:n]).reshape(n, len(_PARTS)),
        )

    def to_lists(self) -> dict[str, list]:
        """The raw samples, for the run's detail file."""
        starts, costs = self._arrays()
        return {"starts": starts.tolist(), "costs": costs.tolist()}

    def mean_slowdown(self) -> float:
        """The slowdown over everything sampled."""
        _, costs = self._arrays()
        if not len(costs):
            return 1.0
        return float(_slowdown(np.minimum(costs, CLIP * NOMINAL_COSTS_S).mean(axis=0)))

    def adjusted(self, starts: Sequence[float], ends: Sequence[float]) -> np.ndarray:
        """Adjusted seconds of each interval ``[starts[i], ends[i]]``."""
        starts = np.asarray(starts, dtype=float)
        ends = np.asarray(ends, dtype=float)
        at, costs = self._arrays()
        if len(at) < MIN_SAMPLES:
            raise RuntimeError("the speed probe took too few samples; was it started?")
        spent = np.concatenate([[0.0], np.cumsum(costs.sum(axis=1))])
        clipped = np.minimum(costs, CLIP * NOMINAL_COSTS_S)
        running = np.vstack([np.zeros(costs.shape[1]), np.cumsum(clipped, axis=0)])
        first = np.searchsorted(at, starts, side="left")
        last = np.searchsorted(at, ends, side="left")
        busy = (ends - starts) - (spent[last] - spent[first])
        pad = np.maximum(0.0, (MIN_WINDOW_S - (ends - starts)) / 2.0)
        low = np.searchsorted(at, starts - pad, side="left")
        high = np.searchsorted(at, ends + pad, side="right")
        # Widen sparse neighbourhoods (a long C call defers the signal).
        short = high - low < MIN_SAMPLES
        low = np.where(short, np.maximum(0, low - MIN_SAMPLES), low)
        high = np.where(short, np.minimum(len(at), high + MIN_SAMPLES), high)
        mean_costs = (running[high] - running[low]) / (high - low)[:, None]
        return busy / _slowdown(mean_costs)


def _slowdown(mean_costs: np.ndarray) -> np.ndarray:
    """Slowdown from the mean cost of each part (last axis: the parts)."""
    ratios = np.asarray(mean_costs) / NOMINAL_COSTS_S
    return np.prod(ratios ** WEIGHTS, axis=-1)
