"""The four workloads: what each generates and how much work it times.

Every workload is one analyst lifecycle (generate data, fit, persist and
open a session, serve queries, fine-tune on a new interest) so that every
end-to-end metric is defined on every workload. They differ in which phase
is sized to dominate and at what data scale, which is what separates the
layers (see README.md for the measured shares).

The sizes below are the ISSUE's nominal sizes shrunk by one documented
factor per workload so that the contract's run count fits its time cap;
dataset scales are never changed (that would change which layer
dominates). ``--seconds`` scales the repeat counts from ``RUN_SECONDS``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

#: The ``run_seconds`` of BENCHMARK.json the sizes below are calibrated to.
RUN_SECONDS = 10

TEST_FRACTION = 0.3
MEMORY_BUDGET = 1000   # k
FRAME_SIZE = 50        # F


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    why: str
    dataset: str                 # "imdb" | "mas"
    scale: float
    n_queries: int               # SPJ queries the model is fitted on (70/30 split)
    n_reveal_queries: int        # unseen SPJ queries revealed later (0 with clusters)
    n_aggregates: int
    clusters: int                # >0: Fig. 7 protocol, k-means interest clusters
    config: dict                 # bench_asqp_config(...) keyword arguments
    fits: int                    # timed fits per run at RUN_SECONDS
    serve_requests: int          # timed session.query calls per run at RUN_SECONDS
    setup_repeats: int           # data generations, and sessions opened and fine-tuned
    min_fit_score: float = 0.0   # output check on the held-out Eq. 1 score
    input_seed: int = 7          # dataset, queries, splits, popularity (see README)
    smoke: dict = field(default_factory=dict)   # overrides for --smoke

    def sized(self, seconds: float, smoke: bool) -> "WorkloadSpec":
        """The spec at ``--seconds`` (and ~1/20 of the work under --smoke)."""
        spec = replace(self, **self.smoke) if smoke else self
        factor = seconds / RUN_SECONDS
        return replace(
            spec,
            fits=max(1, round(spec.fits * factor)),
            serve_requests=max(100, round(spec.serve_requests * factor)),
        )


def _fixed_length(n_iterations: int, fine_tune_iterations: int, **extra) -> dict:
    """Config with early stopping disabled, so every run does equal work."""
    return dict(
        n_iterations=n_iterations,
        fine_tune_iterations=fine_tune_iterations,
        early_stopping_patience=max(n_iterations, fine_tune_iterations),
        **extra,
    )


WORKLOADS = (
    WorkloadSpec(
        name="fit_small_train",
        why="figure-scale IMDB, full profile: rl (PPO update + rollout) is ~all "
            "of the fit, db/preprocess are bypassed",
        dataset="imdb", scale=0.35,
        n_queries=50, n_reveal_queries=12, n_aggregates=8, clusters=0,
        # ISSUE: n_iterations=24 (~33 s); shrunk by 6.
        config=_fixed_length(4, 1),
        fits=1, serve_requests=3000, setup_repeats=2,
        min_fit_score=0.35,
        smoke=dict(scale=0.1, n_queries=20, n_reveal_queries=8,
                   config=_fixed_length(1, 1, n_actors=2, action_space_target=60,
                                        n_candidate_rollouts=2),
                   serve_requests=100, setup_repeats=1),
    ),
    WorkloadSpec(
        name="fit_large_prep",
        why="IMDB at 349k rows, light profile: preprocess (per-row provenance "
            "loops) and tracker/collector build dominate the fit, rl is minor",
        dataset="imdb", scale=16,
        # ISSUE: 160 queries, median of 3 fits; shrunk by 4 (queries) and 3 (fits).
        n_queries=40, n_reveal_queries=6, n_aggregates=8, clusters=0,
        config=_fixed_length(3, 1, light=True, training_fraction=1.0),
        fits=1, serve_requests=800, setup_repeats=1,
        smoke=dict(scale=1.0, n_queries=16, n_reveal_queries=6,
                   config=_fixed_length(1, 1, light=True, training_fraction=1.0,
                                        n_actors=2, action_space_target=60,
                                        n_candidate_rollouts=2),
                   serve_requests=100, setup_repeats=1),
    ),
    WorkloadSpec(
        name="serve_mixed",
        why="MAS at 154k rows: tiny approximation-set queries (fixed per-query "
            "cost) next to full-database fallbacks and group-by aggregates; rl "
            "is idle while serving",
        dataset="mas", scale=16,
        # ISSUE: 60 unseen queries, 20 000 requests; shrunk by 2 and 2.5.
        n_queries=60, n_reveal_queries=16, n_aggregates=20, clusters=0,
        config=_fixed_length(4, 1, light=True),
        fits=1, serve_requests=4500, setup_repeats=2,
        smoke=dict(scale=1.0, n_queries=16, n_reveal_queries=16, n_aggregates=6,
                   config=_fixed_length(1, 1, light=True, n_actors=2,
                                        action_space_target=60,
                                        n_candidate_rollouts=2),
                   serve_requests=500, setup_repeats=1),
    ),
    WorkloadSpec(
        name="drift_finetune",
        why="IMDB queries k-means'd into 3 interest clusters (Fig. 7): fit on "
            "one, fine-tune on the others; exercises action-space extension, "
            "network expansion and session refresh",
        dataset="imdb", scale=0.35,
        n_queries=75, n_reveal_queries=0, n_aggregates=8, clusters=3,
        # ISSUE: fit 8 iterations, fine_tune_iterations=8 (~2 x 12 s); both
        # shrunk by 4, both fine-tunes run on each of two opened sessions.
        config=_fixed_length(2, 2, light=True),
        fits=1, serve_requests=3000, setup_repeats=2,
        smoke=dict(scale=0.2, n_queries=60,
                   config=_fixed_length(1, 2, light=True, n_actors=2,
                                        action_space_target=120,
                                        n_candidate_rollouts=2),
                   serve_requests=100, setup_repeats=1),
    ),
)

BY_NAME = {spec.name: spec for spec in WORKLOADS}
