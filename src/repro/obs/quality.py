"""Answer-quality accounting: the audit governor and the read-time fold.

The paper's contract is not "fast queries" but *approximate answers
whose quality is quantified* (Eq. 1 recall against the frame, Eq. 2
aggregate relative error). This module closes the loop at serving time
in two halves:

* **Live: the admission governor.** Only what decides whether an
  approximation-set answer is shadow-audited stays live — the sample
  rate, a deterministic coin over a hash window of the trace id, and a
  budget that admits an audit only while spent audit time plus one more
  audit fits in :data:`MAX_OVERHEAD` of serving time. The session asks
  :meth:`Governor.admit` before it emits the ``query`` row, stamps the
  decision on the row (``audit``: ``"audited"``, ``"coin"`` or
  ``"budget"``), re-executes the audited answers against the full
  database itself and lands each measurement with
  :meth:`Governor.record_audit` — one ``quality`` row of kind
  ``audit``. :func:`start` re-arms the governor for a run and records
  its rate as one ``quality`` row of kind ``config``.
* **Read time: the fold.** :func:`accounting` derives every count,
  mean and fraction from a loaded :class:`~repro.obs.rundir.Run`'s
  ``query`` and ``quality`` rows, like :func:`repro.obs.slo.statuses`
  and :func:`repro.obs.health.alerts`. Nothing else counts serving
  quality, and nothing is written back.

The dependency rule of the obs package holds: this module never imports
``repro.core`` or ``repro.db`` — the session executes shadow queries
and reports plain numbers here. The ``quality`` telemetry stream has a
single producer (this module, through the :mod:`repro.obs.telemetry`
O_APPEND chokepoint); the ``quality-telemetry-sink-only`` rule of
``tests/test_source_rules.py`` enforces that.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from typing import Any, Optional

from . import telemetry as _telemetry
from .rundir import Run

#: Fraction of approximation-set answers shadow-audited by default.
DEFAULT_AUDIT_RATE = 0.1

#: Budget: cumulative audit time may not exceed this fraction of
#: cumulative serving time (the first audit is always allowed).
MAX_OVERHEAD = 0.01

#: Audited recall below this marks the trace low-quality (the
#: ``low_quality`` root-span attribute ``repro analyze`` labels by).
LOW_QUALITY_RECALL = 0.8

#: Newest audit rows :func:`accounting` returns as the audit table.
MAX_AUDIT_ROWS = 256

#: Trailing ``query`` rows the online calibration error averages.
CALIBRATION_WINDOW = 256

#: Lower-bound objectives installed when auditing is the point of the
#: run (`repro report --smoke`); they ride the standard burn pipeline.
QUALITY_OBJECTIVES = (
    "quality.recall.p10 > 0.85 @ 90%",
    "quality.agg_rel_error.p95 < 0.25 @ 90%",
)

#: The ``audit`` field of an approximation-set ``query`` row.
AUDITED, SKIPPED_COIN, SKIPPED_BUDGET = "audited", "coin", "budget"


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


def rate_from_env() -> float:
    """Audit rate from ``REPRO_AUDIT_RATE`` (validated) or
    :data:`DEFAULT_AUDIT_RATE`."""
    raw = os.environ.get("REPRO_AUDIT_RATE")
    if raw is None or raw == "":
        return DEFAULT_AUDIT_RATE
    return validate_rate(raw, source="REPRO_AUDIT_RATE")


def _audit_keep(trace_id: str, rate: float) -> bool:
    """Deterministic audit coin: a hash window of the trace id.

    Reads the 8-hex window at chars 8..16: no RNG state, so the same
    trace id gets the same verdict on every replay. Admits
    ``round(rate * 10_000)`` of the 10,000 residues.
    """
    if rate <= 0.0:
        return False
    if rate >= 1.0:
        return True
    window = trace_id[8:16] or trace_id[:8]
    return int(window, 16) % 10_000 < round(rate * 10_000)


class Governor:
    """Per-run audit admission: the rate, the coin and the budget.

    Holds only what the next decision needs — spent audit seconds,
    served seconds and the last audit's cost; every count is folded from
    the recorded rows by :func:`accounting`.
    """

    def __init__(self) -> None:
        self.reset(0.0)

    def reset(self, rate: float) -> None:
        self.rate = validate_rate(rate)
        self.audit_seconds = 0.0
        self.serving_seconds = 0.0
        self.last_audit_cost = 0.0

    def admit(
        self,
        trace_id: Optional[str],
        elapsed_seconds: float,
        approximate: bool,
    ) -> Optional[str]:
        """Account one served answer; its ``audit`` decision, if any.

        A full-database answer is ground truth already (``None``). The
        budget is conservative: beyond the always-allowed first audit,
        an audit is admitted only if the budget covers the spent audit
        time *plus* one more audit at the last observed cost —
        admitting on a just-recovered budget would overshoot it by a
        full audit every time, and the all-on arm of
        ``benchmarks/bench_kernels.py`` gates the realized share, not
        the intent.
        """
        self.serving_seconds += max(0.0, elapsed_seconds)
        if not approximate:
            return None
        if trace_id is None or not _audit_keep(trace_id, self.rate):
            return SKIPPED_COIN
        if (
            self.audit_seconds + self.last_audit_cost
            > MAX_OVERHEAD * self.serving_seconds
        ):
            return SKIPPED_BUDGET
        return AUDITED

    def record_audit(
        self,
        recall: float,
        predicted: float,
        observed: float,
        agg_rel_error: Optional[float] = None,
        cost_seconds: float = 0.0,
        sql: str = "",
    ) -> bool:
        """Spend one audit and record it; True if it was low quality."""
        cost_seconds = max(0.0, cost_seconds)
        self.audit_seconds += cost_seconds
        self.last_audit_cost = cost_seconds
        low_quality = recall < LOW_QUALITY_RECALL
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
        return low_quality


#: The run's admission state; :func:`start` re-arms it for each run.
GOVERNOR = Governor()


def start(rate: float) -> Governor:
    """Re-arm :data:`GOVERNOR` and record the rate: one ``config`` row."""
    GOVERNOR.reset(rate)
    _telemetry.emit("quality", kind="config", sample_rate=GOVERNOR.rate)
    return GOVERNOR


# ------------------------------------------------------------------ #
# the read-time fold
# ------------------------------------------------------------------ #
def audits(run: Run) -> list[dict[str, Any]]:
    """Every shadow-audit row of a run, oldest first."""
    return [r for r in run.stream("quality") if r.get("kind") == "audit"]


def _mean(values: list[float]) -> Optional[float]:
    return sum(values) / len(values) if values else None


def accounting(run: Run) -> dict[str, Any]:
    """The answer-quality accounting of a recorded run.

    Counts, means and the overhead fraction over the run's ``query``
    rows (served seconds, the ``audit`` decisions) and ``quality`` rows
    (the rate, the audits); ``calibration_error`` is the mean
    |confidence − realized frame score| over the last
    :data:`CALIBRATION_WINDOW` ``query`` rows. A run recorded before the
    decisions were on the rows reads as 0 skips and an unknown rate.
    """
    queries = run.stream("query")
    done = audits(run)
    configs = [r for r in run.stream("quality") if r.get("kind") == "config"]
    decisions = Counter(q.get("audit") for q in queries)
    serving = sum(float(q.get("elapsed_seconds") or 0.0) for q in queries)
    spent = sum(float(a.get("cost_seconds") or 0.0) for a in done)
    errors = [
        abs(float(q["confidence"]) - float(q["realized_frame_score"]))
        for q in queries[-CALIBRATION_WINDOW:]
        if q.get("confidence") is not None
        and q.get("realized_frame_score") is not None
    ]
    return {
        "sample_rate": configs[-1].get("sample_rate") if configs else None,
        "counts": {
            "queries": len(queries),
            "approx_queries": sum(
                bool(q.get("used_approximation")) for q in queries
            ),
            "audits": len(done),
            "low_quality": sum(bool(a.get("low_quality")) for a in done),
            "skipped_coin": decisions[SKIPPED_COIN],
            "skipped_budget": decisions[SKIPPED_BUDGET],
        },
        "mean_recall": _mean([
            float(a["recall"]) for a in done if a.get("recall") is not None
        ]),
        "mean_agg_rel_error": _mean([
            float(a["agg_rel_error"])
            for a in done if a.get("agg_rel_error") is not None
        ]),
        "serving_seconds": serving,
        "audit_seconds": spent,
        "overhead_fraction": spent / serving if serving > 0.0 else 0.0,
        "calibration_error": _mean([e for e in errors if math.isfinite(e)]),
        "audit_log": done[-MAX_AUDIT_ROWS:],
    }
