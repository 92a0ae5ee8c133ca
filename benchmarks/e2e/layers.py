"""Where the traced pass cuts the program into layers, and what it reports.

:func:`instrument` wraps the public callables through which one layer
calls the next, each at the attribute its caller resolves it through, so a
span boundary is a layer boundary. :func:`layer_metrics` turns the recorded
spans (plus a few facts only the harness knows) into the per-layer metrics
declared in BENCHMARK.json. Nothing under ``src/`` is edited; spans inside
the program are a later change.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any

import numpy as np

import repro.core.metric as metric_module
import repro.core.session as session_module
import repro.core.trainer as trainer_module
from repro.core import (
    AnswerabilityEstimator,
    ApproximationSet,
    ASQPSession,
    CoverageTracker,
    GSLEnvironment,
    TrainedModel,
)
from repro.embedding import QueryEmbedder, QueryRelaxer, TupleEmbedder
from repro.rl import MultiActorCollector, PPOUpdater, RolloutBuffer

from benchmarks.e2e.tracing import Recorder

# ``import repro.core.preprocess as m`` would bind the *function* of that
# name, which shadows the submodule attribute on the package.
preprocess_module = import_module("repro.core.preprocess")

#: Phases whose wall time is a timed end-to-end metric.
TIMED_PHASES = ("fit", "serve", "drift")


def instrument(recorder: Recorder, full_db: Any) -> None:
    """Patch every layer boundary; undo with ``recorder.restore()``."""
    wrap = recorder.wrap

    def execute_name(db: Any, *_args: Any, **_kwargs: Any) -> str:
        return "db.execute_full" if db is full_db else "db.execute_approx"

    def aggregate_name(db: Any, *_args: Any, **_kwargs: Any) -> str:
        return "db.aggregate_full" if db is full_db else "db.aggregate_approx"

    # db: every execute the core issues, split by target database.
    wrap(preprocess_module, "execute", execute_name, measure=len)
    wrap(session_module, "execute", execute_name, measure=len)
    wrap(session_module, "execute_aggregate", aggregate_name, measure=len)
    wrap(preprocess_module, "compute_database_stats", "db.stats")
    wrap(preprocess_module, "variational_subsample", "db.subsample")
    wrap(trainer_module, "variational_subsample", "db.subsample")

    # embedding
    wrap(QueryRelaxer, "relax", "embedding.relax")
    wrap(QueryEmbedder, "embed", "embedding.query_embed")
    wrap(QueryEmbedder, "embed_workload", "embedding.query_embed_workload", measure=len)
    wrap(preprocess_module, "select_representatives", "embedding.cluster")
    wrap(TupleEmbedder, "embed_group", "embedding.tuple_embed")

    # preprocess
    wrap(trainer_module, "preprocess", "preprocess")

    # rl
    wrap(MultiActorCollector, "__init__", "rl.collector_build")
    wrap(MultiActorCollector, "collect", "rl.rollout")
    wrap(RolloutBuffer, "build", "rl.buffer_build", measure=len)
    wrap(PPOUpdater, "update", "rl.update")
    wrap(trainer_module, "run_training_loop", "rl.training_loop", measure=len)

    # environment and reward (the default GSL environment)
    wrap(GSLEnvironment, "step", "environment.step")
    wrap(GSLEnvironment, "reset", "environment.reset")
    wrap(CoverageTracker, "__init__", "reward.tracker_build")
    for method in ("add_keys", "remove_keys"):
        wrap(CoverageTracker, method, "reward.update")
    for method in ("batch_score", "probe_add_score", "score_with_keys"):
        wrap(CoverageTracker, method, "reward.score")

    # inference
    wrap(TrainedModel, "approximation_set", "inference.approx_set")
    wrap(trainer_module, "generate_approximation_set", "inference.rollout")
    wrap(ApproximationSet, "to_database", "inference.materialize")
    wrap(TrainedModel, "training_scores", "inference.training_scores")

    # estimator, session, trainer
    wrap(AnswerabilityEstimator, "__init__", "estimator.build")
    wrap(AnswerabilityEstimator, "estimate", "estimator.estimate")
    wrap(AnswerabilityEstimator, "deviation_confidence", "estimator.deviation")
    wrap(ASQPSession, "query", "session.query")
    wrap(ASQPSession, "refresh", "session.refresh")
    wrap(TrainedModel, "fine_tune", "trainer.fine_tune")

    # metric: the harness's own checks, so they are not read as program time.
    wrap(metric_module, "score", "metric.score")


def layer_metrics(rec: Recorder, facts: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as ``{name: (value, unit)}``.

    Busy times and counts cover the whole run (every phase and repeat)
    unless a phase is named; ``phase.*`` gives the traced wall time of each
    phase so shares can be formed.
    """
    busy, calls, count = rec.busy, rec.calls, rec.count
    serve_busy = busy("session.query", phase="serve")
    rollout_busy = busy("rl.rollout") + busy("rl.buffer_build")
    steps = count("rl.buffer_build")
    update_samples = steps * facts["update_epochs"]
    query_ms = np.asarray(rec.durations("session.query", phase="serve")) * 1000.0
    fallback_busy = (
        busy("db.execute_full", phase="serve", under="session.query")
        + busy("db.aggregate_full", phase="serve", under="session.query")
    )
    fine_tune_busy = busy("trainer.fine_tune")
    phase_s = facts["phase_s"]
    timed = sum(phase_s[phase] for phase in TIMED_PHASES)
    fit_rl_busy = sum(
        busy(name, phase="fit")
        for name in ("rl.collector_build", "rl.rollout", "rl.buffer_build", "rl.update")
    )

    seconds: dict[str, float] = {
        "datasets.gen_s": busy("datasets.gen"),
        "datasets.workload_gen_s": busy("datasets.workload_gen"),
        "db.execute_full.busy_s": busy("db.execute_full"),
        "db.execute_approx.busy_s": busy("db.execute_approx"),
        "db.aggregate.busy_s": busy("db.aggregate_full") + busy("db.aggregate_approx"),
        "db.stats_s": busy("db.stats"),
        "db.subsample_s": busy("db.subsample"),
        "embedding.relax_s": busy("embedding.relax"),
        "embedding.query_embed_s": (
            busy("embedding.query_embed") + busy("embedding.query_embed_workload")
        ),
        "embedding.cluster_s": busy("embedding.cluster"),
        "embedding.tuple_embed_s": busy("embedding.tuple_embed"),
        "preprocess.busy_s": busy("preprocess"),
        "preprocess.self_s": rec.self_time("preprocess"),
        "preprocess.coverage_s": facts["preprocess_timings"].get("coverage", 0.0),
        "preprocess.execute_relaxed_s": facts["preprocess_timings"].get(
            "execute_relaxed", 0.0
        ),
        "preprocess.action_space_s": facts["preprocess_timings"].get(
            "build_action_space", 0.0
        ),
        "preprocess.program_s": sum(facts["preprocess_timings"].values()),
        "rl.collector_build_s": busy("rl.collector_build"),
        "rl.rollout.busy_s": busy("rl.rollout"),
        "rl.rollout.self_s": rec.self_time("rl.rollout"),
        "rl.rollout.program_s": facts["program_rollout_s"],
        "rl.buffer_build_s": busy("rl.buffer_build"),
        "rl.update.busy_s": busy("rl.update"),
        "rl.update.program_s": facts["program_update_s"],
        "rl.serve_phase_busy_s": sum(
            busy(name, phase="serve")
            for name in ("rl.collector_build", "rl.rollout", "rl.update")
        ),
        "environment.step.busy_s": busy("environment.step"),
        "environment.step.self_s": rec.self_time("environment.step"),
        "environment.reset.busy_s": busy("environment.reset"),
        "reward.tracker_build_s": busy("reward.tracker_build"),
        "reward.update.busy_s": busy("reward.update"),
        "reward.score.busy_s": busy("reward.score"),
        "inference.approx_set_s": busy("inference.approx_set"),
        "inference.materialize_s": busy("inference.materialize"),
        "inference.training_scores_s": busy("inference.training_scores"),
        "estimator.build_s": busy("estimator.build"),
        "estimator.estimate.busy_s": busy("estimator.estimate"),
        "estimator.deviation.busy_s": busy("estimator.deviation"),
        "session.query.self_s": rec.self_time("session.query", phase="serve"),
        "session.refresh_s": busy("session.refresh"),
        "trainer.fine_tune.busy_s": fine_tune_busy,
        "trainer.fine_tune.extend_s": fine_tune_busy
        - busy("rl.training_loop", under="trainer.fine_tune"),
        "persistence.save_s": busy("persistence.save"),
        "persistence.load_s": busy("persistence.load"),
        "metric.score_s": busy("metric.score"),
        **{f"phase.{name}_s": value for name, value in phase_s.items()},
    }
    counts: dict[str, float] = {
        "datasets.rows": facts["rows"],
        "db.execute_full.calls": calls("db.execute_full"),
        "db.execute_full.rows_out": count("db.execute_full"),
        "db.execute_approx.calls": calls("db.execute_approx"),
        "db.aggregate.calls": calls("db.aggregate_full") + calls("db.aggregate_approx"),
        "embedding.relax.calls": calls("embedding.relax"),
        "embedding.query_embed.calls": (
            calls("embedding.query_embed") + count("embedding.query_embed_workload")
        ),
        "embedding.tuple_embed.calls": calls("embedding.tuple_embed"),
        "preprocess.actions": facts["actions"],
        "preprocess.representatives": facts["representatives"],
        "preprocess.requirement_rows": facts["requirement_rows"],
        "rl.rollout.steps": steps,
        "rl.rollout.episodes": calls("environment.reset"),
        "rl.update.calls": calls("rl.update"),
        "rl.iterations": count("rl.training_loop"),
        "environment.step.calls": calls("environment.step"),
        "reward.tracker_build.calls": calls("reward.tracker_build"),
        "reward.update.calls": calls("reward.update"),
        "reward.score.calls": calls("reward.score"),
        "inference.approx_set.calls": calls("inference.approx_set"),
        "inference.rollouts": calls("inference.rollout"),
        "estimator.estimate.calls": calls("estimator.estimate"),
        "estimator.deviation.calls": calls("estimator.deviation"),
        "session.query.calls": calls("session.query", phase="serve"),
        "trainer.fine_tune.calls": calls("trainer.fine_tune"),
        "trainer.actions_added": facts["actions_added"],
    }
    metrics = {name: (value, "s") for name, value in seconds.items()}
    metrics.update({name: (value, "count") for name, value in counts.items()})
    metrics.update({
        "rl.rollout.steps_per_s": (_ratio(steps, rollout_busy), "1/s"),
        "rl.update.samples_per_s": (
            _ratio(update_samples, busy("rl.update")), "1/s"
        ),
        "session.query.p99_ms": (float(np.percentile(query_ms, 99)), "ms"),
        # The regime each workload was chosen for, as shares of its phase.
        "fit.rl_frac": (_ratio(fit_rl_busy, phase_s["fit"]), "ratio"),
        "fit.preprocess_frac": (
            _ratio(busy("preprocess", phase="fit"), phase_s["fit"]), "ratio"
        ),
        "fit.collector_build_frac": (
            _ratio(busy("rl.collector_build", phase="fit"), phase_s["fit"]), "ratio"
        ),
        "drift.fine_tune_frac": (_ratio(fine_tune_busy, phase_s["drift"]), "ratio"),
        "session.approx_frac": (facts["approx_frac"], "ratio"),
        "session.fallback_busy_frac": (_ratio(fallback_busy, serve_busy), "ratio"),
        "persistence.bytes": (facts["persistence_bytes"], "bytes"),
        "trace.spans": (len(rec.spans), "count"),
        "trace_overhead_frac": (
            _ratio(len(rec.spans) * facts["span_cost_s"], timed), "ratio"
        ),
    })
    return metrics


def _ratio(numerator: float, denominator: float) -> float:
    return float(numerator) / float(denominator) if denominator > 0 else 0.0
