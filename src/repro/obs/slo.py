"""Declarative SLOs: latency/answerability objectives with burn-rate alerts.

The paper's contract is *interactive latency* — approximation-set
answers in seconds instead of minutes — so the reproduction states that
contract as service-level objectives and watches them like Quickr /
VerdictDB treat per-query latency budgets. An objective is one line of
text::

    query.p95 < 250ms              # windowed latency objective
    query.p99 < 1s @ 99.9%         # explicit compliance target
    estimator.calibration_error < 0.1   # gauge objective
    quality.recall.p10 > 0.85 @ 90%     # lower-bound quality objective

:func:`statuses` is a fold over a loaded :class:`~repro.obs.rundir.Run`,
like :func:`repro.obs.health.alerts`: a windowed objective's samples are
one field of one recorded stream (:data:`SOURCES`), the last
:data:`WINDOW` of them. Alerting is the SRE multi-window burn rate: with
error budget ``1 - target``, the fraction of violating samples in the
slow (whole) and fast (last :data:`FAST_WINDOW`) windows is divided by
the budget, and a status has a severity only when **both** burn past a
threshold — a single slow query cannot page, a sustained regression
cannot hide. A gauge objective reads the last row of its source
(:data:`GAUGES`).

:func:`configure` records one ``slo`` row ``{spec}`` per objective and
:func:`objectives` reads them back (older runs' status rows carry
``spec`` too); :func:`repro.obs.health.alerts` turns each status with a
severity into one alert.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import Any, Iterable, Optional, Union

from . import health as _health
from . import metrics as _metrics
from . import telemetry as _telemetry
from .rundir import Run

#: Multi-window burn-rate thresholds (both windows must exceed).
WARN_BURN_RATE = 2.0
CRIT_BURN_RATE = 10.0

#: Samples needed in the slow window before burn alerts may fire.
MIN_SAMPLES = 10

#: Samples in the slow (whole) and the fast (trailing) window.
WINDOW = 256
FAST_WINDOW = 32

#: Worst rows whose trace ids a windowed status names.
EXEMPLARS = 3

#: Short names usable in objective specs → metric names.
ALIASES = {
    "query": "session.query.seconds",
    "train.rollout": "train.rollout.seconds",
    "train.update": "train.update.seconds",
    "recall": "quality.recall",
    "agg_rel_error": "quality.agg_rel_error",
}

#: Windowed metric → (stream, field) of the recorded rows that are its
#: samples. A windowed metric with no source has no samples.
SOURCES = {
    "session.query.seconds": ("query", "elapsed_seconds"),
    "quality.recall": ("quality", "recall"),
    "quality.agg_rel_error": ("quality", "agg_rel_error"),
    "train.rollout.seconds": ("train.update", "rollout_seconds"),
    "train.update.seconds": ("train.update", "update_seconds"),
}

#: Gauge metric → (stream, field) whose last recorded row is its value.
#: A gauge with no source, or no row, has no value.
GAUGES = {"estimator.calibration_error": ("estimator", "calibration_error")}

#: p10 exists for lower-bound objectives (quality metrics where *small*
#: is bad); the upper-tail percentiles serve latency-style metrics.
_WINDOW_AGGS = ("p10", "p50", "p95", "p99", "mean", "max")

_NUMBER = r"\d+(?:\.\d*)?|\.\d+"
_SPEC_RE = re.compile(
    r"^\s*(?P<metric>[\w.]+)\s*(?P<op><=|>=|<|>)\s*"
    rf"(?P<value>{_NUMBER})\s*(?P<unit>us|ms|s|%)?\s*"
    rf"(?:@\s*(?P<target>{_NUMBER})\s*%)?\s*$"
)

_UNIT_SCALE = {None: 1.0, "s": 1.0, "ms": 1e-3, "us": 1e-6, "%": 1e-2}

_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


@dataclass(frozen=True)
class Objective:
    """One parsed objective (see module docstring for the grammar)."""

    spec: str            # original text, for reports
    name: str            # short name, e.g. "query.p95"
    metric: str          # metric name the samples come from
    agg: str             # p10|p50|p95|p99|mean|max for windows, "value" for gauges
    op: str              # <, <=, >, >=
    threshold: float     # in base units (seconds / plain value)
    target: float = 0.99  # compliance target (fraction of good samples)

    @property
    def windowed(self) -> bool:
        return self.agg != "value"

    def complies(self, value: float) -> bool:
        return _OPS[self.op](value, self.threshold)


def parse_objective(spec: Union[str, Objective]) -> Objective:
    """Parse ``"query.p95 < 250ms [@ 99.9%]"`` into an :class:`Objective`.

    A metric with recorded samples (:data:`SOURCES`) needs an aggregate:
    ``query < 250ms`` is rejected rather than read as a gauge nothing sets.
    """
    if isinstance(spec, Objective):
        return spec
    match = _SPEC_RE.match(spec)
    metric = match.group("metric") if match else ""
    head, _, tail = metric.rpartition(".")
    if tail in _WINDOW_AGGS and head:
        agg, metric_name = tail, head
    else:
        agg, metric_name = "value", metric
    resolved = ALIASES.get(metric_name, metric_name)
    if match is None or (agg == "value" and resolved in SOURCES):
        raise ValueError(
            f"unparseable SLO spec {spec!r}; expected "
            "'<metric>[.p95] < <value>[ms] [@ <target>%]'"
        )
    threshold = float(match.group("value")) * _UNIT_SCALE[match.group("unit")]
    target = float(match.group("target")) / 100.0 if match.group("target") else 0.99
    if not 0.0 < target < 1.0:
        raise ValueError(f"SLO target must be in (0%, 100%), got {spec!r}")
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


def _samples(
    run: Run, source: Optional[tuple[str, str]]
) -> list[tuple[float, Optional[str]]]:
    """``(sample, trace_id)`` of every row of a (stream, field) source."""
    if source is None:
        return []
    stream, key = source
    return [
        (float(row[key]), row.get("trace_id"))
        for row in run.stream(stream) if row.get(key) is not None
    ]


def _evaluate_windowed(
    objective: Objective, run: Run, status: dict[str, Any]
) -> dict[str, Any]:
    window = _samples(run, SOURCES.get(objective.metric))[-WINDOW:]
    status.update(
        n_samples=len(window), bad_fraction=0.0, fast_bad_fraction=0.0,
        burn_rate=0.0, fast_burn_rate=0.0, exemplar_trace_ids=[],
    )
    if not window:
        return status
    # The worst rows' trace ids link the objective to concrete requests:
    # an alert names the ids an operator feeds to `repro analyze --trace`.
    # Upper-bound objectives (latency) blame the largest samples,
    # lower-bound ones (quality.recall) the smallest.
    traced = sorted(
        (row for row in window if row[1]),
        key=lambda row: row[0],
        reverse=objective.op in ("<", "<="),
    )
    status["exemplar_trace_ids"] = [trace_id for _, trace_id in traced[:EXEMPLARS]]
    samples = [sample for sample, _ in window]
    fast = samples[-FAST_WINDOW:]
    budget = max(1.0 - objective.target, 1e-9)
    status["value"] = _aggregate(samples, objective.agg)
    status["ok"] = objective.complies(status["value"])
    bad = sum(not objective.complies(s) for s in samples)
    fast_bad = sum(not objective.complies(s) for s in fast)
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


def _evaluate_gauge(
    objective: Objective, run: Run, status: dict[str, Any]
) -> dict[str, Any]:
    last = _samples(run, GAUGES.get(objective.metric))[-1:]
    value = last[0][0] if last else None
    status.update(n_samples=0 if value is None else 1, value=value)
    if value is not None and not objective.complies(value):
        status["ok"] = False
        # Violation is WARN; a 2x miss of the threshold margin is CRIT.
        factor = (
            value / objective.threshold
            if objective.op in ("<", "<=") and objective.threshold > 0
            else 2.0
        )
        status["severity"] = _health.CRIT if factor >= 2.0 else _health.WARN
    return status


def objectives(run: Run) -> list[Objective]:
    """The objectives a run recorded, in first-recorded order."""
    specs = dict.fromkeys(
        row["spec"] for row in run.stream("slo") if row.get("spec")
    )
    return [parse_objective(spec) for spec in specs]


def statuses(run: Run) -> list[dict[str, Any]]:
    """Every recorded objective's status at the end of the run."""
    found = []
    for objective in objectives(run):
        status = {
            "name": objective.name, "spec": objective.spec,
            "kind": "window" if objective.windowed else "gauge",
            "metric": objective.metric, "threshold": objective.threshold,
            "target": objective.target, "value": None, "ok": True,
            "severity": None,
        }
        evaluate = _evaluate_windowed if objective.windowed else _evaluate_gauge
        found.append(evaluate(objective, run, status))
    return found


def configure(specs: Iterable[Union[str, Objective]]) -> list[Objective]:
    """Record the objectives that judge the run: one ``slo`` row each.

    Parses every spec before recording any, so a bad one records nothing.
    """
    parsed = [parse_objective(spec) for spec in specs]
    for objective in parsed:
        _telemetry.emit("slo", spec=objective.spec)
    return parsed


#: Objectives ``repro profile`` / ``repro report --smoke`` install by
#: default: the paper's interactive-latency pitch plus estimator quality.
DEFAULT_OBJECTIVES = (
    "query.p95 < 250ms",
    "estimator.calibration_error < 0.1",
)
