"""Interest-drift detection (paper §4.4, challenge C5, Fig. 7).

"Interest drift is identified when user queries deviate from the initial
model training query workload. When three or more queries deviate from the
training workload with confidence scores surpassing 0.8, our model
initiates a fine-tuning process tailored to the specific characteristics
of these queries."

:class:`DriftDetector` implements exactly that trigger: it accumulates
queries whose deviation confidence exceeds the threshold and fires once
the count reaches the trigger size, handing the accumulated queries to the
fine-tuning callback (wired up in :mod:`repro.core.session`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from ..db.query import AggregateQuery, SPJQuery
from ..obs import telemetry as _telemetry

QueryLike = Union[SPJQuery, AggregateQuery]


@dataclass
class DriftEvent:
    """A fired drift trigger: the deviating queries and their confidences."""

    queries: list[QueryLike]
    confidences: list[float]


@dataclass
class DriftDetector:
    """Counts deviating queries and fires after ``trigger_count`` of them.

    Parameters
    ----------
    confidence_threshold:
        Minimum deviation confidence for a query to count (paper: 0.8).
    trigger_count:
        How many deviating queries trigger fine-tuning (paper: 3).
    """

    confidence_threshold: float = 0.8
    trigger_count: int = 3
    _pending: list[QueryLike] = field(default_factory=list)
    _pending_confidences: list[float] = field(default_factory=list)
    events_fired: int = 0

    def observe(self, query: QueryLike, deviation_confidence: float) -> DriftEvent | None:
        """Record one query observation; returns an event when triggered."""
        if deviation_confidence > self.confidence_threshold:
            self._pending.append(query)
            self._pending_confidences.append(deviation_confidence)
        if len(self._pending) >= self.trigger_count:
            event = DriftEvent(
                queries=list(self._pending),
                confidences=list(self._pending_confidences),
            )
            self._pending.clear()
            self._pending_confidences.clear()
            self.events_fired += 1
            mean_deviation = sum(event.confidences) / len(event.confidences)
            _telemetry.emit(
                "drift",
                pending_count=len(event.queries),
                mean_deviation=mean_deviation,
                events_fired=self.events_fired,
            )
            return event
        return None

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    def reset(self) -> None:
        self._pending.clear()
        self._pending_confidences.clear()
