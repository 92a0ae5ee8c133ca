"""Answerability estimation (paper §4.4, evaluated in Fig. 5).

Given a user query, estimate whether the approximation set is likely to
contain relevant tuples. The estimate combines:

* **familiarity** — the maximum cosine similarity between the query's
  embedding and the training-representative embeddings ("the query's
  closeness to the training workload"), and
* **competence** — the model's observed Eq. 1 scores on the nearest
  representatives ("the existing model's performance on the training
  workload"), similarity-weighted.

The product, squashed to [0, 1], is the confidence that the query is
answerable from the approximation set; ≥ :data:`ANSWERABLE_AT` (0.5)
predicts "answerable". ``deviation_confidence`` (1 − familiarity) drives interest-
drift detection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from ..db.database import prepared
from ..db.query import AggregateQuery, SPJQuery
from ..embedding.query_embed import QueryEmbedder

#: The confidence at and above which a query is predicted answerable.
ANSWERABLE_AT = 0.5

#: Softmax sharpness when weighting nearby representatives.
_SIMILARITY_TEMPERATURE = 0.1


@dataclass(frozen=True)
class AnswerabilityEstimate:
    """Outcome of one estimation (one instance per query, shared by every
    answer to it for the estimator's life)."""

    confidence: float       # in [0, 1]
    familiarity: float      # normalized closeness to the training workload
    competence: float       # similarity-weighted training score
    answerable: bool

    @property
    def deviation(self) -> float:
        """How confidently the query deviates from the training workload."""
        return float(np.clip(1.0 - self.familiarity, 0.0, 1.0))


class AnswerabilityEstimator:
    """Predicts per-query answerability from the approximation set."""

    def __init__(
        self,
        embedder: QueryEmbedder,
        representative_embeddings: np.ndarray,
        training_scores: Sequence[float],
        calibration_embeddings: Optional[np.ndarray] = None,
    ) -> None:
        embeddings = np.atleast_2d(np.asarray(representative_embeddings))
        scores = np.asarray(training_scores, dtype=np.float64)
        if len(embeddings) != len(scores):
            raise ValueError(
                f"{len(embeddings)} representative embeddings for "
                f"{len(scores)} training scores"
            )
        if len(scores) == 0:
            raise ValueError("estimator needs at least one training representative")
        self.embedder = embedder
        self.embeddings = embeddings
        self.scores = scores
        self.calibration_embeddings = (
            np.atleast_2d(np.asarray(calibration_embeddings))
            if calibration_embeddings is not None and len(calibration_embeddings)
            else None
        )
        #: Estimates by query, bounded like the executor's prepared plans.
        self._estimates: dict = {}
        self._calibrate()

    def _calibrate(self) -> None:
        """Fit the familiarity normalization to the training workload.

        Raw cosine similarities between hashed query embeddings live well
        inside (0, 1); we map them to a [0, 1] familiarity scale using how
        close the *training queries* sit to the representatives: a query as
        close to the representatives as a typical training query is fully
        familiar. Without calibration queries we fall back to the
        representatives' own leave-one-out similarities.
        """
        if self.calibration_embeddings is not None and len(self.calibration_embeddings) >= 2:
            sims = self.calibration_embeddings @ self.embeddings.T
            nearest = np.max(sims, axis=1)
            # Training queries that *are* representatives score 1.0; drop
            # them from the reference so the scale reflects typical queries.
            informative = nearest[nearest < 0.999]
            if len(informative) >= 2:
                nearest = informative
        elif len(self.embeddings) >= 2:
            sims = self.embeddings @ self.embeddings.T
            np.fill_diagonal(sims, -np.inf)
            nearest = np.max(sims, axis=1)
        else:
            self._sim_low, self._sim_high = 0.25, 0.75
            return
        low = max(0.0, float(np.percentile(nearest, 10)) * 0.5)
        high = float(np.percentile(nearest, 50))
        if high - low < 0.05:
            low = max(0.0, high - 0.3)
        self._sim_low, self._sim_high = low, max(high, low + 0.05)

    def _normalized_familiarity(self, max_similarity: float) -> float:
        span = self._sim_high - self._sim_low
        return float(np.clip((max_similarity - self._sim_low) / span, 0.0, 1.0))

    # -------------------------------------------------------------- #
    def estimate(self, query: Union[SPJQuery, AggregateQuery]) -> AnswerabilityEstimate:
        """The query's estimate: computed on first sight, then remembered
        (:func:`repro.db.database.prepared`) for the estimator's life."""
        return prepared(self._estimates, query, lambda: self._estimate(query))

    def _estimate(self, query: Union[SPJQuery, AggregateQuery]) -> AnswerabilityEstimate:
        vector = self.embedder.embed(query)
        similarities = self.embeddings @ vector  # embeddings are unit norm
        similarities = np.clip(similarities, -1.0, 1.0)
        familiarity = self._normalized_familiarity(float(np.max(similarities)))

        # Similarity-weighted training score (softmax over similarities).
        logits = similarities / _SIMILARITY_TEMPERATURE
        logits -= logits.max()
        weights = np.exp(logits)
        weights /= weights.sum()
        competence = float(np.dot(weights, self.scores))

        confidence = float(np.clip(familiarity * competence, 0.0, 1.0))
        return AnswerabilityEstimate(
            confidence=confidence,
            familiarity=familiarity,
            competence=competence,
            answerable=confidence >= ANSWERABLE_AT,
        )

    def deviation_confidence(self, query: Union[SPJQuery, AggregateQuery]) -> float:
        """:attr:`AnswerabilityEstimate.deviation` of a query not yet estimated."""
        return self.estimate(query).deviation

    def calibration_error(self) -> float:
        """Self-assessed calibration: mean |confidence − training score|.

        Leave-one-out over the representatives: predict each one's
        answerability from the *other* representatives and compare with
        the Eq. 1 score the model actually achieved on it. Near 0 means
        the confidence scale tracks realized quality; the default SLOs
        and ``repro report`` surface it as an estimator-quality gauge.
        """
        n = len(self.embeddings)
        if n < 2:
            return 0.0
        sims = self.embeddings @ self.embeddings.T
        np.fill_diagonal(sims, -np.inf)
        errors = np.empty(n)
        for i in range(n):
            row = sims[i]
            familiarity = self._normalized_familiarity(
                float(np.clip(np.max(row), -1.0, 1.0))
            )
            logits = row / _SIMILARITY_TEMPERATURE
            logits = logits - np.max(logits)
            weights = np.exp(logits)   # self weight is exp(-inf) = 0
            weights /= weights.sum()
            competence = float(np.dot(weights, self.scores))
            confidence = float(np.clip(familiarity * competence, 0.0, 1.0))
            errors[i] = abs(confidence - self.scores[i])
        return float(np.mean(errors))
