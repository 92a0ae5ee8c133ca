"""Answer-quality accounting: calibration samples and shadow audits.

The paper's contract is not "fast queries" but *approximate answers
whose quality is quantified* (Eq. 1 recall against the frame, Eq. 2
aggregate relative error). This module closes the loop at serving time:

* **Per-query accounting** — every query served on a recorded run
  reports its predicted answerability (the estimator's confidence)
  against the realized frame score; the pair lands in the
  ``quality.calibration`` histogram (and, through the session's
  ``query`` row, in :mod:`repro.obs.health`'s calibration-drift rule).
* **Shadow auditing** — a deterministic fraction of approximation-set
  answers (chosen by a hash window of the trace id) is
  re-executed against the full database by the session; the measured
  recall and aggregate relative error arrive here and become
  ``quality.recall`` / ``quality.agg_rel_error`` histogram samples,
  ``quality`` telemetry records (the samples of the quality SLOs,
  trace id included), and rows of a bounded in-memory audit table.

Audit cost is bounded by construction: a budget governor skips audits
once cumulative audit time exceeds ``max_overhead`` (default 1%) of
cumulative serving time, so the ``--audit-check`` bench gate holds at
the default sample rate no matter how expensive ground truth is.

The dependency rule of the obs package holds: this module never imports
``repro.core`` or ``repro.db`` — the session executes shadow queries
and reports plain numbers here. The ``quality`` telemetry stream has a
single producer (this module, through the :mod:`repro.obs.telemetry`
O_APPEND chokepoint); the ``quality-telemetry-sink-only`` rule of
``tests/test_source_rules.py`` enforces that.
"""

from __future__ import annotations

import os
from collections import deque
from typing import Any, Optional

from . import context as _context
from . import metrics as _metrics
from . import telemetry as _telemetry

#: Fraction of approximation-set answers shadow-audited by default.
DEFAULT_AUDIT_RATE = 0.1

#: Budget governor: cumulative audit time may not exceed this fraction
#: of cumulative serving time (the first audit is always allowed).
DEFAULT_MAX_OVERHEAD = 0.01

#: Audited recall below this marks the trace low-quality (the
#: ``low_quality`` root-span attribute ``repro analyze`` labels by).
LOW_QUALITY_RECALL = 0.8

#: Rows kept in the in-memory audit table (oldest evicted first).
MAX_AUDIT_ROWS = 256

#: Lower-bound objectives installed when auditing is the point of the
#: run (`repro audit --smoke`); they ride the standard burn pipeline.
QUALITY_OBJECTIVES = (
    "quality.recall.p10 > 0.85 @ 90%",
    "quality.agg_rel_error.p95 < 0.25 @ 90%",
)


def validate_rate(rate: Any, source: str = "audit sample rate") -> float:
    """Contract check for a sample rate: a number in [0, 1].

    A bad audit rate silently disabling ground truth would be a
    correctness bug, so out-of-range values are rejected loudly.
    """
    try:
        value = float(rate)
    except (TypeError, ValueError):
        raise ValueError(
            f"{source} must be a number in [0, 1], got {rate!r}"
        ) from None
    if not 0.0 <= value <= 1.0:  # also rejects NaN
        raise ValueError(f"{source} must be within [0, 1], got {rate!r}")
    return value


def rate_from_env(default: float = DEFAULT_AUDIT_RATE) -> float:
    """Audit rate from ``REPRO_AUDIT_RATE`` (validated) or the default."""
    raw = os.environ.get("REPRO_AUDIT_RATE")
    if raw is None or raw == "":
        return default
    return validate_rate(raw, source="REPRO_AUDIT_RATE")


def _audit_keep(trace_id: str, rate: float) -> bool:
    """Deterministic audit coin: a hash window of the trace id.

    Reads the 8-hex window at chars 8..16: no RNG state, so the same
    trace id gets the same verdict on every replay.
    """
    if rate <= 0.0:
        return False
    if rate >= 1.0:
        return True
    window = trace_id[8:16] or trace_id[:8]
    return int(window, 16) % 10_000 < int(rate * 10_000)


class QualityMonitor:
    """Per-run quality accounting and shadow-audit bookkeeping.

    The session is the only writer: it calls :meth:`observe_query` for
    every answered query, asks :meth:`should_audit` for the coin, runs
    the shadow execution itself (this module never touches a database),
    and lands the measurement via :meth:`record_audit`.
    """

    def __init__(
        self,
        sample_rate: float = DEFAULT_AUDIT_RATE,
        max_overhead: Optional[float] = DEFAULT_MAX_OVERHEAD,
        low_quality_recall: float = LOW_QUALITY_RECALL,
        max_audit_rows: int = MAX_AUDIT_ROWS,
    ) -> None:
        self.sample_rate = validate_rate(sample_rate)
        self.max_overhead = max_overhead
        self.low_quality_recall = low_quality_recall
        self.counts: dict[str, int] = {
            "queries": 0,
            "approx_queries": 0,
            "audits": 0,
            "low_quality": 0,
            "skipped_coin": 0,
            "skipped_budget": 0,
        }
        self.serving_seconds = 0.0
        self.audit_seconds = 0.0
        self._last_audit_cost = 0.0
        self._recall_sum = 0.0
        self._agg_error_sum = 0.0
        self._agg_error_count = 0
        #: Bounded audit table: newest MAX_AUDIT_ROWS measurements.
        self.audit_log: deque[dict[str, Any]] = deque(maxlen=max_audit_rows)

    # -- per-query accounting ---------------------------------------- #
    def observe_query(
        self,
        predicted: float,
        observed: float,
        used_approximation: bool,
        elapsed_seconds: float = 0.0,
    ) -> None:
        """Record one answered query."""
        self.counts["queries"] += 1
        self.serving_seconds += max(0.0, elapsed_seconds)
        _metrics.observe("quality.calibration", abs(predicted - observed))
        if used_approximation:
            self.counts["approx_queries"] += 1

    # -- shadow-audit decision ---------------------------------------- #
    def should_audit(self, trace_id: Optional[str]) -> bool:
        """Deterministic coin plus the overhead budget governor.

        The budget is conservative: beyond the always-allowed first
        audit, an audit is admitted only if the budget covers the spent
        audit time *plus* one more audit at the last observed cost —
        admitting on a just-recovered budget would overshoot it by a
        full audit every time, and the ``--audit-check`` bench gates
        the realized fraction, not the intent.
        """
        if trace_id is None:
            return False
        if not _audit_keep(trace_id, self.sample_rate):
            self.counts["skipped_coin"] += 1
            return False
        if (
            self.max_overhead is not None
            and self.audit_seconds + self._last_audit_cost
            > self.max_overhead * self.serving_seconds
        ):
            self.counts["skipped_budget"] += 1
            return False
        return True

    # -- audit measurement -------------------------------------------- #
    def record_audit(
        self,
        recall: float,
        predicted: float,
        observed: float,
        agg_rel_error: Optional[float] = None,
        cost_seconds: float = 0.0,
        sql: str = "",
        trace_id: Optional[str] = None,
    ) -> bool:
        """Land one shadow-audit measurement; True if it was low quality."""
        trace_id = trace_id or _context.current_trace_id()
        self.counts["audits"] += 1
        self.audit_seconds += max(0.0, cost_seconds)
        self._last_audit_cost = max(0.0, cost_seconds)
        self._recall_sum += recall
        _metrics.observe("quality.recall", recall)
        if agg_rel_error is not None:
            self._agg_error_sum += agg_rel_error
            self._agg_error_count += 1
            _metrics.observe("quality.agg_rel_error", agg_rel_error)
        low_quality = recall < self.low_quality_recall
        if low_quality:
            self.counts["low_quality"] += 1
            _metrics.add("quality.low_quality_audits")
        _metrics.set_gauge(
            "quality.audit_overhead_fraction", self.overhead_fraction()
        )
        _telemetry.emit(
            "quality",
            kind="audit",
            sql=sql[:200],
            predicted=predicted,
            observed=observed,
            recall=recall,
            agg_rel_error=agg_rel_error,
            cost_seconds=cost_seconds,
            low_quality=low_quality,
        )
        self.audit_log.append({
            "trace_id": trace_id,
            "sql": sql[:200],
            "predicted": predicted,
            "observed": observed,
            "recall": recall,
            "agg_rel_error": agg_rel_error,
            "cost_seconds": cost_seconds,
            "low_quality": low_quality,
        })
        return low_quality

    # -- read side ----------------------------------------------------- #
    def overhead_fraction(self) -> float:
        if self.serving_seconds <= 0.0:
            return 0.0
        return self.audit_seconds / self.serving_seconds

    def summary(self) -> dict[str, Any]:
        audits = self.counts["audits"]
        return {
            "sample_rate": self.sample_rate,
            "max_overhead": self.max_overhead,
            "low_quality_recall": self.low_quality_recall,
            "counts": dict(self.counts),
            "mean_recall": self._recall_sum / audits if audits else None,
            "mean_agg_rel_error": (
                self._agg_error_sum / self._agg_error_count
                if self._agg_error_count else None
            ),
            "serving_seconds": self.serving_seconds,
            "audit_seconds": self.audit_seconds,
            "overhead_fraction": self.overhead_fraction(),
            "audit_log": list(self.audit_log),
        }


# ------------------------------------------------------------------ #
# module-level singleton (one monitor per observability run)
# ------------------------------------------------------------------ #
#: Bounded: holds at most the one configured monitor (see `clear`).
_ACTIVE: list[QualityMonitor] = []


def configure(
    sample_rate: Optional[float] = None,
    **kwargs: Any,
) -> QualityMonitor:
    """Install a quality monitor; rate defaults to ``REPRO_AUDIT_RATE``."""
    clear()
    if sample_rate is None:
        sample_rate = rate_from_env()
    monitor = QualityMonitor(sample_rate=sample_rate, **kwargs)
    _ACTIVE.append(monitor)
    return monitor


def install(monitor: QualityMonitor) -> QualityMonitor:
    """Install an existing monitor (vs ``configure``'s fresh one).

    For callers that build the monitor first — a harness re-arming the
    same monitor so the budget governor's cumulative accounting persists
    across an uninstalled phase.
    """
    clear()
    _ACTIVE.append(monitor)
    return monitor


def active() -> Optional[QualityMonitor]:
    return _ACTIVE[0] if _ACTIVE else None


def is_active() -> bool:
    return bool(_ACTIVE)


def clear() -> None:
    _ACTIVE.clear()
