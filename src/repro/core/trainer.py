"""Training (paper Alg. 1) and the trained-model handle.

:class:`ASQPTrainer` runs pre-processing, builds the configured
environment and agent, and iterates collect → PPO-update with early
stopping on the mean episode reward. The returned :class:`TrainedModel`
generates approximation sets (Alg. 2) and supports drift fine-tuning
(§4.4): new queries extend the coverage list and the action space, the
networks expand preserving weights, and training continues with batches
biased toward the new queries.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Optional, Sequence, Union

import numpy as np

from ..obs.clock import perf_counter
from ..db.database import Database
from ..db.query import AggregateQuery, SPJQuery
from ..obs import memory, telemetry, trace
from ..db.sampling import variational_subsample
from ..datasets.workloads import Workload
from ..embedding.relaxation import QueryRelaxer
from ..rl.parallel import MultiActorCollector, make_actor_specs
from ..rl.rollout import RolloutBuffer
from .action_space import ActionSpace, group_rows_into_actions
from .agent import ASQPAgent
from .approximation import ApproximationSet
from .config import ASQPConfig
from .environment import GSLEnvironment
from .inference import generate_approximation_set
from .preprocess import (
    PreprocessResult,
    RowPool,
    build_coverage,
    preprocess,
    provenance_ids,
)
from .reward import (
    CoverageIndex,
    CoverageTracker,
    QueryCoverage,
    held_query_scores,
)

#: A mean episode reward must beat the best so far by more than this to
#: reset the early-stopping patience (Alg. 1 line 9).
EARLY_STOPPING_MIN_DELTA = 1e-3


@dataclass
class IterationRecord:
    """Diagnostics of one outer training iteration.

    Carries every :class:`~repro.rl.ppo.UpdateStats` field plus the
    iteration's timing split, so ``model.history`` is the single source
    of truth for both the ``train.update`` telemetry stream (one row is
    ``asdict(record)``) and any after-the-fact analysis (persistence
    round-trips it; the timing fields default to zero when loading
    models saved before they existed).
    """

    iteration: int
    mean_episode_reward: float
    policy_loss: float
    value_loss: float
    entropy: float
    kl_divergence: float
    clip_fraction: float
    n_samples: int = 0
    rollout_seconds: float = 0.0
    update_seconds: float = 0.0
    steps_per_second: float = 0.0
    explained_variance: float = 0.0
    grad_norm: float = 0.0


@dataclass
class TrainedModel:
    """A trained ASQP-RL model bound to its database."""

    db: Database
    config: ASQPConfig
    agent: ASQPAgent
    preprocessed: PreprocessResult
    coverages: list[QueryCoverage]
    action_space: ActionSpace
    history: list[IterationRecord] = field(default_factory=list)
    setup_seconds: float = 0.0
    fine_tune_count: int = 0
    #: The set the default :meth:`approximation_set` call selected for the
    #: current policy (Alg. 2 runs once per trained policy); ``None`` until
    #: that call, and again once training changes the policy.
    selected: Optional[ApproximationSet] = field(
        default=None, repr=False, compare=False
    )
    _coverage_index: Optional[CoverageIndex] = field(
        default=None, init=False, repr=False, compare=False
    )

    def coverage_index(self) -> CoverageIndex:
        """The CSR incidence of ``coverages``, built once and shared.

        Training environments and :meth:`approximation_set`'s candidate
        scoring track the same requirement rows; :meth:`fine_tune` drops
        the index when it extends ``coverages``. A loaded model serving its
        stored set builds none until it trains.
        """
        if self._coverage_index is None:
            self._coverage_index = CoverageIndex(self.coverages)
        return self._coverage_index

    # -------------------------------------------------------------- #
    def approximation_set(self, greedy: bool = True) -> ApproximationSet:
        """Generate an approximation set from the trained policy (Alg. 2).

        Rolls out one greedy trajectory plus ``config.n_candidate_rollouts``
        sampled ones and keeps the candidate with the best Eq. 1 score on
        the *training* coverage structures (no test information) — the
        sequential-selection analogue of taking the best of several policy
        samples.

        ``greedy=False`` does *not* mean "sample" here, as it does for
        :func:`generate_approximation_set`: it drops the sampled candidates
        and returns the arg-max trajectory alone, the policy's own
        deterministic set (no generator is consumed, no scoring).

        The default call selects once per trained policy: it keeps its set
        in :attr:`selected` and returns that on every later default call,
        until :func:`run_training_loop` clears it. ``greedy=False`` rolls out
        afresh and neither reads nor writes it.
        """
        if greedy and self.selected is not None:
            return self.selected
        rng = np.random.default_rng(self.config.seed + 31)
        candidates = [
            generate_approximation_set(
                self.agent.actor, self.action_space, self.config, rng, greedy=True
            )
        ]
        if greedy:
            for _ in range(self.config.n_candidate_rollouts):
                candidates.append(generate_approximation_set(
                    self.agent.actor, self.action_space, self.config, rng, greedy=False
                ))
        best = candidates[0]
        if len(candidates) > 1:
            tracker = CoverageTracker(self.coverages, self.coverage_index())
            index_ids = tracker.index.space_ids(self.action_space)
            scores = []
            for candidate in candidates:
                ids = index_ids[candidate]
                scores.append(tracker.score_with_keys(ids[ids >= 0]))
            best = candidates[int(np.argmax(scores))]  # the first best
        approximation = self.action_space.approximation(best)
        if greedy:
            self.selected = approximation
        return approximation

    def approximation_database(self) -> Database:
        return self.approximation_set().to_database(self.db)

    def training_scores(
        self, approximation_set: Optional[ApproximationSet] = None
    ) -> np.ndarray:
        """Eq. 1 term of each training representative under the final set.

        Feeds the answerability estimator: the model's observed quality on
        the queries it was trained on. Without an argument it scores the
        model's :attr:`selected` set (selected first if no default
        :meth:`approximation_set` call has yet); a caller holding that set
        passes it in.

        Scored by :func:`~repro.core.reward.held_query_scores`, which
        builds no :class:`CoverageIndex`, so opening a session on a loaded
        model builds none.
        """
        if approximation_set is None:
            approximation_set = self.approximation_set()
        return held_query_scores(self.coverages, approximation_set)

    def calibrated_count_scale(self, default: float = 1.0) -> float:
        """Self-calibrated COUNT/SUM rescaling factor for aggregate mode.

        The approximation set is a workload-*biased* sample, so uniform
        Horvitz–Thompson scaling by the global sampling fraction misfits.
        Instead, measure the inclusion rate the model actually achieves on
        its own training representatives — ``|q(T)| / |q(S)|`` per query,
        both known without touching test queries — and return the median.
        Used by the §6.4 aggregate evaluation (Fig. 12).
        """
        from ..db.executor import execute

        approx_db = self.approximation_database()
        ratios: list[float] = []
        for query in self.preprocessed.representatives:
            subset_size = len(execute(approx_db, query))
            full_size = len(execute(self.db, query))
            if subset_size > 0 and full_size > 0:
                ratios.append(full_size / subset_size)
        if not ratios:
            return default
        return float(np.median(ratios))

    # -------------------------------------------------------------- #
    def fine_tune(
        self, new_queries: Sequence[Union[SPJQuery, AggregateQuery]]
    ) -> None:
        """Fine-tune on drifted queries (paper §4.4).

        New queries are relaxed and executed; their provenance rows extend
        the action space, their coverage structures join the reward, and
        training resumes with query batches biased toward them.
        """
        if not new_queries:
            return
        self.selected = None  # the action space and coverages change here
        rng = np.random.default_rng(self.config.seed + 500 + self.fine_tune_count)
        config = self.config
        prep = self.preprocessed
        relaxer = QueryRelaxer(prep.stats)
        spj_queries = [
            q.strip_aggregates() if q.is_aggregate else q for q in new_queries
        ]
        weight = 1.0 / max(1, len(self.coverages))

        pool = RowPool()
        new_coverages: list[QueryCoverage] = []
        base_query_index = len(self.coverages)
        for offset, query in enumerate(spj_queries):
            tables, ids = provenance_ids(self.db, relaxer.relax(query))
            pool.add(tables, ids, base_query_index + offset)
            new_coverages.append(
                build_coverage(self.db, query, weight, config.frame_size, rng)
            )

        target = max(
            config.group_size,
            int(config.action_space_target * config.group_size * 0.25),
        )
        sample = variational_subsample(pool.sources(), target, rng)
        new_actions = group_rows_into_actions(
            pool.take(sample.positions), config.group_size, rng
        )
        if new_actions is not None:
            self.action_space = self.action_space.extend(new_actions)
            self.agent.expand_action_space(len(self.action_space))

        self.coverages.extend(new_coverages)
        self._coverage_index = None  # built for the shorter list
        new_indices = list(range(base_query_index, len(self.coverages)))
        # Extend the estimator inputs too.
        new_embeddings = prep.query_embedder.embed_workload(spj_queries)
        prep.representatives.extend(spj_queries)
        prep.representative_embeddings = np.vstack(
            [prep.representative_embeddings, new_embeddings]
        )
        prep.training_embeddings = np.vstack(
            [prep.training_embeddings, new_embeddings]
        )

        run_training_loop(
            self,
            n_iterations=config.fine_tune_iterations,
            rng=rng,
            bias_queries=new_indices,
        )
        self.fine_tune_count += 1


def run_training_loop(
    model: TrainedModel,
    n_iterations: int,
    rng: np.random.Generator,
    bias_queries: Optional[Sequence[int]] = None,
) -> list[IterationRecord]:
    """Collect/update iterations with early stopping (Alg. 1 lines 5-10).

    ``bias_queries`` (fine-tuning) forces every other episode batch to be
    drawn from those query indices, aligning the reward with the drifted
    interest while retaining the original workload.

    Every iteration's :class:`UpdateStats` lands in an
    :class:`IterationRecord` appended to ``model.history`` — and, when
    observability is enabled, on the ``train.update`` telemetry stream —
    and the records of *this* call are returned. The model's selected
    approximation set is cleared: it belonged to the policy before.
    """
    model.selected = None
    config = model.config
    coverages = model.coverages
    if bias_queries:
        bias_set = set(bias_queries)
        coverages = [
            replace(c, weight=c.weight * 4.0) if i in bias_set else c
            for i, c in enumerate(coverages)
        ]

    # The x4 boost changes weights only, so boosted and plain coverages (and
    # all n_actors environments) share the model's one incidence index.
    coverage_index = model.coverage_index()
    env_seed_sequence = np.random.SeedSequence(int(rng.integers(0, 2**31)))
    env_seeds = iter(env_seed_sequence.spawn(config.n_actors))

    def env_factory():
        return GSLEnvironment(
            model.action_space,
            coverages,
            config,
            np.random.default_rng(next(env_seeds)),
            coverage_index=coverage_index,
        )

    specs = make_actor_specs(config.n_actors, seed=int(rng.integers(0, 2**31)))
    collector = MultiActorCollector(
        env_factory, model.agent.actor, model.agent.critic, specs
    )

    best_reward = -np.inf
    stale = 0
    start_iteration = len(model.history)
    records: list[IterationRecord] = []
    with trace.span("train.loop") as loop_span:
        if loop_span:
            loop_span.set(
                n_iterations=n_iterations, fine_tuning=bool(bias_queries)
            )
        for iteration in range(n_iterations):
            buffer = RolloutBuffer()
            rollout_start = perf_counter()
            with trace.span("train.rollout"):
                mean_reward = collector.collect(config.episodes_per_actor, buffer)
                batch = buffer.build(use_critic=config.use_actor_critic)
            rollout_seconds = perf_counter() - rollout_start
            # Released as soon as read, not when the names are rebound: the
            # update runs without the per-step trajectories resident, the
            # next collection without this iteration's batch.
            del buffer
            update_start = perf_counter()
            with trace.span("train.update"):
                stats = model.agent.updater.update(batch)
            update_seconds = perf_counter() - update_start
            del batch
            record = IterationRecord(
                iteration=start_iteration + iteration,
                mean_episode_reward=mean_reward,
                policy_loss=stats.policy_loss,
                value_loss=stats.value_loss,
                entropy=stats.entropy,
                kl_divergence=stats.kl_divergence,
                clip_fraction=stats.clip_fraction,
                explained_variance=stats.explained_variance,
                grad_norm=stats.grad_norm,
                n_samples=stats.n_samples,
                rollout_seconds=rollout_seconds,
                update_seconds=update_seconds,
                steps_per_second=(
                    stats.n_samples / rollout_seconds if rollout_seconds > 0 else 0.0
                ),
            )
            model.history.append(record)
            records.append(record)
            telemetry.emit("train.update", **asdict(record))
            # Epoch boundary for the leak check: steady-state training
            # should show ~zero traced-byte growth between iterations.
            memory.mark_epoch("train.iteration")
            # Early stopping (Alg. 1 line 9) on reward plateau.
            if mean_reward > best_reward + EARLY_STOPPING_MIN_DELTA:
                best_reward = mean_reward
                stale = 0
            else:
                stale += 1
                if stale >= config.early_stopping_patience:
                    break
    return records


class ASQPTrainer:
    """End-to-end training entry point (paper Alg. 1)."""

    def __init__(
        self,
        db: Database,
        workload: Workload,
        config: Optional[ASQPConfig] = None,
    ) -> None:
        self.db = db
        self.workload = workload
        self.config = config or ASQPConfig()

    def train(self) -> TrainedModel:
        """Pre-process, train, and return the model handle."""
        start = perf_counter()
        rng = np.random.default_rng(self.config.seed)
        with trace.span("train") as sp:
            with trace.span("train.preprocess"):
                prep = preprocess(self.db, self.workload, self.config, rng)
            agent = ASQPAgent(len(prep.action_space), self.config, rng)
            model = TrainedModel(
                db=self.db,
                config=self.config,
                agent=agent,
                preprocessed=prep,
                coverages=list(prep.coverages),
                action_space=prep.action_space,
            )
            run_training_loop(model, self.config.n_iterations, rng)
            model.setup_seconds = perf_counter() - start
            if sp:
                sp.set(
                    iterations=len(model.history),
                    actions=len(model.action_space),
                    setup_seconds=round(model.setup_seconds, 4),
                )
        return model
