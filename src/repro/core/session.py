"""The user-facing mediator: train once, then query interactively.

:class:`ASQPSystem` is the facade of the whole paper system (Fig. 1):
``fit`` runs pre-processing + RL training (generating a workload first if
none is given, §4.5) and returns an :class:`ASQPSession`. The session
routes each user query through the answerability estimator — answering
from the approximation set when confident, falling back to the full
database otherwise — and watches for interest drift, fine-tuning the model
when the drift trigger fires (§4.4).
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from ..obs.clock import perf_counter
from ..db.database import Database
from ..db.executor import AggregateResult, ResultSet, execute, execute_aggregate
from ..obs import quality, telemetry, trace
from ..obs import context as obs_context
from ..obs.runtime import STATE as _OBS
from ..db.query import AggregateQuery, SPJQuery
from ..datasets.workloads import Workload
from . import metric
from .approximation import ApproximationSet
from .config import ASQPConfig
from .drift import DriftDetector, DriftEvent
from .estimator import ANSWERABLE_AT, AnswerabilityEstimate, AnswerabilityEstimator
from .trainer import ASQPTrainer, TrainedModel
from .workload_gen import WorkloadGenerator

QueryLike = Union[SPJQuery, AggregateQuery]


@dataclass
class AuditOutcome:
    """Ground-truth measurement of one shadow-audited answer."""

    recall: float                          # Eq. 1 frame term vs full D
    agg_rel_error: Optional[float] = None  # Eq. 2, aggregates only
    cost_seconds: float = 0.0
    low_quality: bool = False


@dataclass
class QueryOutcome:
    """What the session returns for one user query."""

    result: Union[ResultSet, AggregateResult]
    used_approximation: bool
    estimate: AnswerabilityEstimate
    elapsed_seconds: float
    drift_event: Optional[DriftEvent] = None
    fine_tuned: bool = False
    #: Set when the shadow audit governor (repro.obs.quality) admitted
    #: this answer (recorded runs only).
    audit: Optional[AuditOutcome] = None

    def __len__(self) -> int:
        return len(self.result)


class ASQPSession:
    """An interactive session over a trained model."""

    def __init__(
        self,
        model: TrainedModel,
        auto_fine_tune: bool = True,
        workload_generator: Optional[WorkloadGenerator] = None,
    ) -> None:
        self.model = model
        self.config = model.config
        self.auto_fine_tune = auto_fine_tune
        self.workload_generator = workload_generator
        self._regenerate()
        self.drift_detector = DriftDetector()

    # -------------------------------------------------------------- #
    def _build_estimator(self) -> AnswerabilityEstimator:
        prep = self.model.preprocessed
        estimator = AnswerabilityEstimator(
            embedder=prep.query_embedder,
            representative_embeddings=prep.representative_embeddings,
            training_scores=self.model.training_scores(self.approximation_set),
            calibration_embeddings=prep.training_embeddings,
        )
        if _OBS.enabled:  # leave-one-out pass, so only on recorded runs
            telemetry.emit(
                "estimator", calibration_error=estimator.calibration_error()
            )
        return estimator

    def _regenerate(self) -> None:
        """What opening and :meth:`refresh` share.

        Reads the model's selected approximation set: a loaded model brings
        it from disk, and Alg. 2 runs only when training changed the policy
        since it was selected. The estimator's training scores count each
        coverage's rows the set holds (:meth:`TrainedModel.training_scores`),
        so opening builds no coverage index; only training and Alg. 2's
        candidate scoring do.
        """
        self.approximation_set: ApproximationSet = self.model.approximation_set()
        self.approx_db: Database = self.approximation_set.to_database(self.model.db)
        self.estimator = self._build_estimator()

    def refresh(self) -> None:
        """Re-read the model's approximation set and rebuild the estimator."""
        self._regenerate()

    # -------------------------------------------------------------- #
    def query(
        self,
        query: QueryLike,
        allow_full_database: bool = True,
        confidence_threshold: Optional[float] = None,
    ) -> QueryOutcome:
        """Answer a query, deciding between the approximation set and D.

        Parameters
        ----------
        allow_full_database:
            When False, always answer from the approximation set (the user
            declined the slow path).
        confidence_threshold:
            Override :data:`~repro.core.estimator.ANSWERABLE_AT` — e.g. the
            paper's full-system variants query the database below predicted
            score 0.6 / 0.8.
        """
        # On recorded runs the session opens the request context itself,
        # so the root span, every telemetry record, and the quality
        # pipeline share one trace id (nested executes reuse it via
        # context.ensure). Disabled runs skip the context entirely.
        scope = obs_context.ensure() if _OBS.enabled else nullcontext()
        with scope, trace.span("session.query") as sp:
            estimate = self.estimator.estimate(query)
            threshold = (
                confidence_threshold
                if confidence_threshold is not None
                else ANSWERABLE_AT
            )
            use_approx = (not allow_full_database) or estimate.confidence >= threshold

            start = perf_counter()
            target = self.approx_db if use_approx else self.model.db
            result: Union[ResultSet, AggregateResult]
            if query.is_aggregate:
                result = execute_aggregate(target, query)
            else:
                result = execute(target, query)
            elapsed = perf_counter() - start

            drift_event = self.drift_detector.observe(query, estimate.deviation)
            fine_tuned = False
            if drift_event is not None and self.auto_fine_tune:
                with trace.span("session.fine_tune"):
                    self.fine_tune(drift_event.queries)
                fine_tuned = True

            outcome = QueryOutcome(
                result=result,
                used_approximation=use_approx,
                estimate=estimate,
                elapsed_seconds=elapsed,
                drift_event=drift_event,
                fine_tuned=fine_tuned,
            )
            if sp:
                sp.set(source="approx" if use_approx else "full")
                sp.count("rows_out", len(result))
                audit = quality.GOVERNOR.admit(
                    obs_context.current_trace_id(), elapsed, use_approx
                )
                realized = self._log_outcome(query, outcome, audit)
                if audit == quality.AUDITED:
                    self._shadow_audit(query, outcome, realized, sp)
        return outcome

    def _log_outcome(
        self, query: QueryLike, outcome: QueryOutcome, audit: Optional[str]
    ) -> float:
        """One ``query`` telemetry row: estimate vs. realized outcome.

        ``realized_frame_score`` is the frame term of Eq. 1 the answer
        actually delivered — ``min(1, rows / F)`` — the live counterpart
        of the estimator's predicted answerability, so the two columns of
        the JSONL line quantify estimator calibration over a session.
        ``audit`` is the shadow-audit decision of an approximation-set
        answer (a full-database answer has none). Returns the realized
        score for the shadow audit.
        """
        estimate = outcome.estimate
        realized = min(1.0, len(outcome.result) / max(1, self.config.frame_size))
        telemetry.emit(
            "query",
            sql=query.to_sql()[:200],
            used_approximation=outcome.used_approximation,
            confidence=estimate.confidence,
            familiarity=estimate.familiarity,
            competence=estimate.competence,
            answerable=estimate.answerable,
            rows=len(outcome.result),
            realized_frame_score=realized,
            elapsed_seconds=outcome.elapsed_seconds,
            drift=outcome.drift_event is not None,
            fine_tuned=outcome.fine_tuned,
            **({"audit": audit} if audit is not None else {}),
        )
        return realized

    def _shadow_audit(
        self,
        query: QueryLike,
        outcome: QueryOutcome,
        realized: float,
        sp: trace.Span,
    ) -> None:
        """Re-execute one admitted answer against the full database.

        The obs layer never touches a database — it only receives the
        measured numbers. Low-quality results are stamped onto the root
        span, so ``repro analyze`` labels the trace ``low_quality``.
        """
        estimate = outcome.estimate
        start = perf_counter()
        with trace.span("session.shadow_audit") as audit_sp:
            recall, agg_error, full_rows = metric.audit_query(
                self.model.db,
                self.approx_db,
                query,
                frame_size=self.config.frame_size,
                scale_counts=1.0
                / self.approximation_set.sampling_fraction(self.model.db),
            )
            if audit_sp:
                audit_sp.set(recall=round(recall, 4), full_rows=full_rows)
        cost = perf_counter() - start
        low_quality = quality.GOVERNOR.record_audit(
            recall=recall,
            predicted=estimate.confidence,
            observed=realized,
            agg_rel_error=agg_error,
            cost_seconds=cost,
            sql=query.to_sql(),
        )
        outcome.audit = AuditOutcome(
            recall=recall,
            agg_rel_error=agg_error,
            cost_seconds=cost,
            low_quality=low_quality,
        )
        sp.set(audit_recall=round(recall, 4))
        if low_quality:
            sp.set(low_quality=1)

    # -------------------------------------------------------------- #
    def fine_tune(self, queries: list[QueryLike]) -> None:
        """Fine-tune the model on drifted queries and refresh the session.

        When a workload generator is attached (no-workload mode), it is
        first refined with the user's queries and contributes additional
        generated queries aligned with the new interest (§4.5).
        """
        training_queries = list(queries)
        if self.workload_generator is not None:
            self.workload_generator.refine_with_user_queries(queries)
            generated = self.workload_generator.generate(
                max(2, len(queries)), name_prefix="drift_gen"
            )
            training_queries.extend(generated.queries)
        self.model.fine_tune(training_queries)
        self.refresh()


class ASQPSystem:
    """Facade: configure once, ``fit`` per database/workload."""

    def __init__(self, config: Optional[ASQPConfig] = None) -> None:
        self.config = config or ASQPConfig()

    def fit(
        self,
        db: Database,
        workload: Optional[Workload] = None,
        n_generated_queries: int = 40,
        auto_fine_tune: bool = True,
    ) -> ASQPSession:
        """Train on the workload (generating one if absent) and open a session."""
        generator: Optional[WorkloadGenerator] = None
        if workload is None or len(workload) == 0:
            generator = WorkloadGenerator(
                db, np.random.default_rng(self.config.seed + 17)
            )
            workload = generator.generate(n_generated_queries)
        trainer = ASQPTrainer(db, workload, self.config)
        model = trainer.train()
        return ASQPSession(
            model,
            auto_fine_tune=auto_fine_tune,
            workload_generator=generator,
        )

    def fit_within_budget(
        self,
        db: Database,
        workload: Workload,
        time_budget_seconds: float,
        auto_fine_tune: bool = True,
    ) -> ASQPSession:
        """Adaptive Configuration (paper §4.5): fit inside a time budget.

        A short probe run (ASQP-Light settings, two iterations) measures
        the per-iteration cost on this database/workload; the measurement
        picks the point on the light ↔ full quality spectrum whose
        projected training time fits the budget, and training runs there.
        The budget steers the quality/time trade-off — it is a target, not
        a hard interrupt.
        """
        if time_budget_seconds <= 0:
            raise ValueError(
                f"time budget must be positive, got {time_budget_seconds}"
            )
        probe_config = ASQPConfig.light(
            memory_budget=self.config.memory_budget,
            frame_size=self.config.frame_size,
            n_iterations=2,
            n_actors=min(2, self.config.n_actors),
            action_space_target=max(
                50, self.config.action_space_target // 4
            ),
            seed=self.config.seed,
        )
        probe_start = perf_counter()
        ASQPTrainer(db, workload, probe_config).train()
        probe_seconds = perf_counter() - probe_start

        # The full configuration costs roughly `cost_ratio` probes: more
        # iterations, more actors/episodes, and a larger action space.
        full = ASQPConfig()
        cost_ratio = (
            (full.n_iterations / probe_config.n_iterations)
            * (self.config.n_actors / probe_config.n_actors)
            * (self.config.action_space_target / probe_config.action_space_target)
            * 0.5  # probe includes one-off preprocessing
        )
        projected_full = probe_seconds * cost_ratio
        fraction = float(np.clip(time_budget_seconds / max(projected_full, 1e-9), 0.0, 1.0))
        config = ASQPConfig.adaptive(
            fraction,
            memory_budget=self.config.memory_budget,
            frame_size=self.config.frame_size,
            seed=self.config.seed,
        )
        model = ASQPTrainer(db, workload, config).train()
        return ASQPSession(model, auto_fine_tune=auto_fine_tune)
