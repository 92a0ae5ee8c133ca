"""Declarative SLOs: latency/answerability objectives with burn-rate alerts.

The paper's contract is *interactive latency* — approximation-set
answers in seconds instead of minutes — so the reproduction states that
contract as service-level objectives and watches them like Quickr /
VerdictDB treat per-query latency budgets. An objective is one line of
text::

    query.p95 < 250ms              # windowed latency objective
    executor.p95 < 200ms @ 99.9%   # explicit compliance target
    estimator.calibration_error < 0.1   # gauge objective
    quality.recall.p10 > 0.85 @ 90%     # lower-bound quality objective

Windowed objectives are evaluated over a rolling window of samples fed
straight from the metrics registry (``metrics.observe`` forwards every
histogram sample of a *watched* metric here — one dict lookup on the
enabled path, nothing when observability is off). Alerting uses the SRE
multi-window burn rate: with error budget ``1 - target``, the fraction
of budget-violating samples in the slow (full) and fast (trailing)
windows is divided by the budget; only when **both** windows burn above
a threshold does an alert fire — a single slow query cannot page, a
sustained regression cannot hide. Gauge objectives compare the current
registry gauge against the threshold at evaluation time.

The tracker records; it does not alert. :meth:`SLOTracker.publish`
writes every objective's status to the ``slo`` telemetry stream, and
:func:`repro.obs.health.alerts` turns the recorded rows into WARN/CRIT
alerts, deduplicated per objective by severity escalation so periodic
evaluation during a live run does not spam the alert table.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from typing import Any, Iterable, Optional, Union

from . import health as _health
from . import metrics as _metrics
from . import telemetry as _telemetry

#: Multi-window burn-rate thresholds (both windows must exceed).
WARN_BURN_RATE = 2.0
CRIT_BURN_RATE = 10.0

#: Samples needed in the slow window before burn alerts may fire.
MIN_SAMPLES = 10

#: Short names usable in objective specs → metric registry names.
ALIASES = {
    "query": "session.query.seconds",
    "executor": "executor.query.seconds",
    "train.rollout": "train.rollout.seconds",
    "train.update": "train.update.seconds",
    "recall": "quality.recall",
    "agg_rel_error": "quality.agg_rel_error",
}

#: p10 exists for lower-bound objectives (quality metrics where *small*
#: is bad); the upper-tail percentiles serve latency-style metrics.
_WINDOW_AGGS = ("p10", "p50", "p95", "p99", "mean", "max")

_SPEC_RE = re.compile(
    r"^\s*(?P<metric>[\w.]+)\s*(?P<op><=|>=|<|>)\s*"
    r"(?P<value>[\d.]+)\s*(?P<unit>us|ms|s|%)?\s*"
    r"(?:@\s*(?P<target>[\d.]+)\s*%)?\s*$"
)

_UNIT_SCALE = {None: 1.0, "s": 1.0, "ms": 1e-3, "us": 1e-6, "%": 1e-2}


@dataclass(frozen=True)
class Objective:
    """One parsed objective (see module docstring for the grammar)."""

    spec: str            # original text, for reports
    name: str            # short name, e.g. "query.p95"
    metric: str          # metrics-registry name the samples come from
    agg: str             # p50|p95|p99|mean|max for windows, "value" for gauges
    op: str              # <, <=, >, >=
    threshold: float     # in base units (seconds / plain value)
    target: float = 0.99  # compliance target (fraction of good samples)

    @property
    def windowed(self) -> bool:
        return self.agg != "value"

    def complies(self, value: float) -> bool:
        if self.op == "<":
            return value < self.threshold
        if self.op == "<=":
            return value <= self.threshold
        if self.op == ">":
            return value > self.threshold
        return value >= self.threshold


def parse_objective(spec: Union[str, Objective]) -> Objective:
    """Parse ``"query.p95 < 250ms [@ 99.9%]"`` into an :class:`Objective`."""
    if isinstance(spec, Objective):
        return spec
    match = _SPEC_RE.match(spec)
    if match is None:
        raise ValueError(
            f"unparseable SLO spec {spec!r}; expected "
            "'<metric>[.p95] < <value>[ms] [@ <target>%]'"
        )
    metric = match.group("metric")
    head, _, tail = metric.rpartition(".")
    if tail in _WINDOW_AGGS and head:
        agg, metric_name = tail, head
    else:
        agg, metric_name = "value", metric
    threshold = float(match.group("value")) * _UNIT_SCALE[match.group("unit")]
    target = float(match.group("target")) / 100.0 if match.group("target") else 0.99
    if not 0.0 < target < 1.0:
        raise ValueError(f"SLO target must be in (0%, 100%), got {spec!r}")
    resolved = ALIASES.get(metric_name, metric_name)
    return Objective(
        spec=spec.strip(),
        name=f"{metric_name}.{agg}" if agg != "value" else metric_name,
        metric=resolved,
        agg=agg,
        op=match.group("op"),
        threshold=threshold,
        target=target,
    )


def _aggregate(samples: list[float], agg: str) -> float:
    if agg == "mean":
        return sum(samples) / len(samples)
    if agg == "max":
        return max(samples)
    q = {"p10": 0.10, "p50": 0.50, "p95": 0.95, "p99": 0.99}[agg]
    return _metrics.percentile(sorted(samples), q)


class SLOTracker:
    """Rolling windows + burn-rate evaluation over registered objectives."""

    def __init__(self, window: int = 256, fast_window: int = 32) -> None:
        self.window = window
        self.fast_window = min(fast_window, window)
        self.objectives: list[Objective] = []
        # samples per watched metric (rings: week-long runs stay flat)
        self._samples: dict[str, deque[float]] = {}

    # -- configuration ----------------------------------------------- #
    def add(self, spec: Union[str, Objective]) -> Objective:
        objective = parse_objective(spec)
        self.objectives.append(objective)
        if objective.windowed and objective.metric not in self._samples:
            self._samples[objective.metric] = deque(maxlen=self.window)
        return objective

    # -- feed --------------------------------------------------------- #
    def record(self, metric: str, value: float) -> None:
        """One histogram sample (wired as the metrics sample hook)."""
        ring = self._samples.get(metric)
        if ring is not None:
            ring.append(float(value))

    # -- evaluation ---------------------------------------------------- #
    def _evaluate_windowed(self, objective: Objective) -> dict[str, Any]:
        samples = list(self._samples.get(objective.metric, ()))
        status: dict[str, Any] = {
            "name": objective.name,
            "spec": objective.spec,
            "kind": "window",
            "metric": objective.metric,
            "threshold": objective.threshold,
            "target": objective.target,
            "n_samples": len(samples),
            "value": None,
            "ok": True,
            "bad_fraction": 0.0,
            "fast_bad_fraction": 0.0,
            "burn_rate": 0.0,
            "fast_burn_rate": 0.0,
            "severity": None,
            "exemplar_trace_ids": [],
        }
        if not samples:
            return status
        # Worst-value exemplars of the watched histogram link the
        # objective to concrete requests: an alert names the trace ids
        # an operator feeds to `repro analyze --trace`. The operator
        # decides the direction of "worst": upper-bound objectives
        # (latency) blame the largest samples, lower-bound objectives
        # (quality.recall) blame the smallest.
        histogram = _metrics.registry().histogram(objective.metric)
        if histogram is not None:
            status["exemplar_trace_ids"] = [
                exemplar["trace_id"]
                for exemplar in histogram.worst_exemplars(
                    3, largest=objective.op in ("<", "<=")
                )
            ]
        value = _aggregate(samples, objective.agg)
        bad = sum(1 for s in samples if not objective.complies(s))
        fast = samples[-self.fast_window:]
        fast_bad = sum(1 for s in fast if not objective.complies(s))
        budget = max(1.0 - objective.target, 1e-9)
        status["value"] = value
        status["ok"] = objective.complies(value)
        status["bad_fraction"] = bad / len(samples)
        status["fast_bad_fraction"] = fast_bad / len(fast)
        status["burn_rate"] = status["bad_fraction"] / budget
        status["fast_burn_rate"] = status["fast_bad_fraction"] / budget
        if len(samples) >= MIN_SAMPLES:
            slow_burn = min(status["burn_rate"], status["fast_burn_rate"])
            if slow_burn >= CRIT_BURN_RATE:
                status["severity"] = _health.CRIT
            elif slow_burn >= WARN_BURN_RATE:
                status["severity"] = _health.WARN
        return status

    def _evaluate_gauge(self, objective: Objective) -> dict[str, Any]:
        value = _metrics.registry().gauge(objective.metric)
        status: dict[str, Any] = {
            "name": objective.name,
            "spec": objective.spec,
            "kind": "gauge",
            "metric": objective.metric,
            "threshold": objective.threshold,
            "target": objective.target,
            "n_samples": 1 if value is not None else 0,
            "value": value,
            "ok": True,
            "severity": None,
        }
        if value is None:
            return status
        status["ok"] = objective.complies(value)
        if not status["ok"]:
            # Violation is WARN; a 2x miss of the threshold margin is CRIT.
            factor = (
                value / objective.threshold
                if objective.op in ("<", "<=") and objective.threshold > 0
                else 2.0
            )
            status["severity"] = _health.CRIT if factor >= 2.0 else _health.WARN
        return status

    def evaluate(self) -> list[dict[str, Any]]:
        """Current status of every objective."""
        return [
            self._evaluate_windowed(objective)
            if objective.windowed
            else self._evaluate_gauge(objective)
            for objective in self.objectives
        ]

    # -- recording --------------------------------------------------- #
    def publish(self) -> None:
        """Evaluate and record every objective's status on the ``slo`` stream."""
        for status in self.evaluate():
            _telemetry.emit("slo", **{
                k: v for k, v in status.items() if k != "kind"
            })

    # -- export -------------------------------------------------------- #
    def summary(self) -> dict[str, Any]:
        return {
            "window": self.window,
            "fast_window": self.fast_window,
            "warn_burn_rate": WARN_BURN_RATE,
            "crit_burn_rate": CRIT_BURN_RATE,
            "objectives": self.evaluate(),
        }


#: Objectives ``repro profile`` / ``repro report --smoke`` install by
#: default: the paper's interactive-latency pitch plus estimator quality.
DEFAULT_OBJECTIVES = (
    "query.p95 < 250ms",
    "executor.p95 < 200ms",
    "estimator.calibration_error < 0.1",
)


# ------------------------------------------------------------------ #
# module-level singleton (one tracker per observability run)
# ------------------------------------------------------------------ #
#: Bounded: holds at most the one configured tracker (see `clear`).
_ACTIVE: list[SLOTracker] = []


def configure(objectives: Iterable[Union[str, Objective]]) -> SLOTracker:
    """Install a tracker for ``objectives`` and hook it into metrics."""
    clear()
    tracker = SLOTracker()
    for spec in objectives:
        tracker.add(spec)
    _ACTIVE.append(tracker)
    _metrics.set_sample_hook(tracker.record)
    return tracker


def active() -> Optional[SLOTracker]:
    return _ACTIVE[0] if _ACTIVE else None


def is_active() -> bool:
    return bool(_ACTIVE)


def clear() -> None:
    """Drop the tracker and detach the metrics sample hook."""
    _ACTIVE.clear()
    _metrics.set_sample_hook(None)


def publish() -> None:
    """Record the active tracker's statuses (no-op when idle)."""
    if _ACTIVE:
        _ACTIVE[0].publish()
