"""One analyst lifecycle through the program's public API, measured.

``generate -> fit -> save/load/open -> serve -> fine-tune`` on one
workload spec. Closed loop, one client, single thread: the analyst waits
for each answer. Every timed operation is repeated and a run reports the
median of its repeats.

The untraced pass runs under a :class:`probe.SpeedProbe` and reports
*adjusted* seconds (wall time with the machine's measured slowdown divided
out, see probe.py); it yields the end-to-end metrics. The traced pass
repeats the same work under :mod:`layers` patches, without the probe, and
yields only the per-layer metrics, in plain wall seconds.

Every output is checked against a direct execution on the full database;
a failed check counts in ``failed`` next to the operations attempted.
"""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import tempfile
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, ContextManager, Iterator, Optional

import numpy as np

from repro.bench import bench_asqp_config
from repro.core import ASQPSession, ASQPTrainer, load_model, metric, save_model
from repro.datasets import (
    Workload,
    make_imdb_aggregate_workload,
    make_imdb_database,
    make_imdb_workload,
    make_mas_aggregate_workload,
    make_mas_database,
    make_mas_workload,
)
from repro.db import Database, compute_database_stats, execute, execute_aggregate
from repro.embedding import QueryEmbedder, kmeans

from benchmarks.e2e import layers
from benchmarks.e2e.probe import SpeedProbe
from benchmarks.e2e.specs import FRAME_SIZE, MEMORY_BUDGET, TEST_FRACTION, WorkloadSpec
from benchmarks.e2e.tracing import Recorder, span_cost

#: Skew of the serving loop's query popularity (ISSUE: Zipf(0.8)).
ZIPF_EXPONENT = 0.8

_DATASETS = {
    "imdb": (make_imdb_database, make_imdb_workload, make_imdb_aggregate_workload),
    "mas": (make_mas_database, make_mas_workload, make_mas_aggregate_workload),
}


@dataclass
class Inputs:
    """Everything the program is given; it sees nothing of how it was made."""

    db: Database
    train: Workload
    test: Workload
    #: (train, held-out) of each interest revealed after the fit.
    reveals: list[tuple[Workload, Workload]]
    aggregates: Workload


@dataclass
class Checks:
    """Operations attempted and output checks failed."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def operations(self, n: int = 1) -> None:
        self.attempted += n

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


class Stopwatch:
    """Named timed intervals; adjusted by the speed probe when one runs."""

    def __init__(self, probe: Optional[SpeedProbe]) -> None:
        self.probe = probe
        self.intervals: dict[str, list[tuple[float, float]]] = {}

    @contextmanager
    def time(self, name: str) -> Iterator[None]:
        start = perf_counter()
        try:
            yield
        finally:
            self.intervals.setdefault(name, []).append((start, perf_counter()))

    def wall(self, name: str) -> np.ndarray:
        """Plain wall seconds of every interval recorded under ``name``."""
        starts, ends = np.asarray(self.intervals[name]).T
        return ends - starts

    def seconds(self, name: str) -> np.ndarray:
        """Adjusted seconds (plain wall seconds without a probe)."""
        starts, ends = np.asarray(self.intervals[name]).T
        return self.spans(starts, ends)

    def spans(self, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        if self.probe is None:
            return ends - starts
        return self.probe.adjusted(starts, ends)


@dataclass
class RunResult:
    end_to_end: dict[str, tuple[float, str]]
    per_layer: Optional[dict[str, tuple[float, str]]]
    checks: Checks
    facts: dict
    spans: list[dict]


def cluster_queries(db: Database, workload: Workload, k: int, rng) -> list[list]:
    """Fig. 7 protocol: k-means the query embeddings, largest cluster first."""
    embedder = QueryEmbedder(stats=compute_database_stats(db))
    result = kmeans(embedder.embed_workload(list(workload)), k, rng)
    clusters = [
        [workload.queries[i] for i in result.members(c)] for c in range(result.k)
    ]
    clusters.sort(key=len, reverse=True)
    return clusters


def approximation_keys(approx_db: Database) -> list[tuple[str, int]]:
    """The (table, base row id) keys an approximation database holds."""
    return sorted(
        (table.name, int(row_id)) for table in approx_db for row_id in table.row_ids
    )


class Lifecycle:
    """Runs one workload once and collects its metrics and checks."""

    def __init__(
        self,
        spec: WorkloadSpec,
        seed: int,
        recorder: Optional[Recorder],
        scratch_dir: str,
    ) -> None:
        self.spec = spec
        self.seed = seed
        self.rec = recorder
        self.scratch_dir = scratch_dir
        self.checks = Checks()
        self.probe = SpeedProbe() if recorder is None else None
        self.watch = Stopwatch(self.probe)
        self.facts: dict[str, Any] = {
            "program_rollout_s": 0.0,
            "program_update_s": 0.0,
            "preprocess_timings": {},
        }
        self._full_provenance: dict[int, frozenset] = {}

    # ------------------------------------------------------------ #
    def _span(self, name: str) -> ContextManager:
        return self.rec.span(name) if self.rec is not None else nullcontext()

    def _enter(self, phase: str) -> None:
        if self.rec is not None:
            self.rec.phase = phase

    def run(self) -> RunResult:
        with self.probe or nullcontext():
            self._generate()
            with self.rec.patching() if self.rec is not None else nullcontext():
                if self.rec is not None:
                    layers.instrument(self.rec, self.inputs.db)
                measured = self._phases()
        return self._result(measured)

    def _phases(self) -> dict:
        model, fit_score = self._fit()
        serve: dict = {}
        drift: dict = {}
        final_keys = []
        for repeat in range(self.spec.setup_repeats):
            session = self._open(model, check=repeat == 0)
            if repeat == 0:
                serve = self._serve(session)
            outcome = self._drift(session, scored=repeat == 0)
            final_keys.append(outcome.pop("keys"))
            if repeat == 0:
                drift = outcome
        self.checks.check(
            all(keys == final_keys[0] for keys in final_keys),
            "repeated fine-tunes of one model chose different approximation sets",
        )
        return {"fit_score": fit_score, **serve, **drift}

    def _result(self, measured: dict) -> RunResult:
        watch = self.watch
        reveals = len(self.inputs.reveals)
        fine_tune_s = watch.seconds("fine_tune").reshape(-1, reveals).sum(axis=1)
        requests = len(self._request_starts)
        latencies_ms = 1000.0 * watch.spans(self._request_starts, self._request_ends)
        # From one request's start to the next one's: what a client looping
        # over the requests waits in all, the loop's own bookkeeping included.
        turnaround_s = watch.spans(
            self._request_starts,
            np.append(self._request_starts[1:], self._request_ends[-1]),
        )
        p50, p95 = np.percentile(latencies_ms, [50, 95])
        end_to_end = {
            "setup_s": (
                float(np.median(watch.seconds("generate")) + np.median(watch.seconds("open"))),
                "s",
            ),
            "fit_s": (float(np.median(watch.seconds("fit"))), "s"),
            "fit_score": (measured["fit_score"], "ratio"),
            "query_p50_ms": (float(p50), "ms"),
            "query_p95_ms": (float(p95), "ms"),
            "queries_per_s": (requests / float(turnaround_s.sum()), "1/s"),
            "served_recall": (measured["recall"], "ratio"),
            "finetune_s": (float(np.median(fine_tune_s)), "s"),
            "drift_score": (measured["drift_score"], "ratio"),
            "retained_score": (measured["retained_score"], "ratio"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MiB",
            ),
        }
        for name in ("fit_score", "served_recall", "drift_score", "retained_score"):
            value = end_to_end[name][0]
            self.checks.check(0.0 <= value <= 1.0, f"{name}={value} outside [0, 1]")
        # Plain wall seconds of every repeat of each phase: what the traced
        # pass's busy times are shares of.
        phase_s = {
            "setup": float(watch.wall("generate").sum() + watch.wall("open").sum()),
            "fit": float(watch.wall("fit").sum()),
            "serve": float(self._request_ends[-1] - self._request_starts[0]),
            "drift": float(watch.wall("fine_tune").sum()),
        }
        self.facts.update(
            phase_s=phase_s,
            reveal_scores=measured["reveal_scores"],
            approx_frac=measured["approx_frac"],
            distinct_queries=measured["distinct"],
            serve_requests=requests,
            slowdown=self.probe.mean_slowdown() if self.probe else None,
            # Everything the adjusted timings were computed from.
            timings={
                "intervals": watch.intervals,
                "requests": [self._request_starts.tolist(), self._request_ends.tolist()],
                "probe": self.probe.to_lists() if self.probe else None,
            },
        )
        per_layer = None
        spans: list[dict] = []
        if self.rec is not None:
            self.facts["span_cost_s"] = span_cost()
            per_layer = layers.layer_metrics(self.rec, self.facts)
            self._cross_check(per_layer)
            spans = self.rec.to_dicts(self.spec.name)
        return RunResult(end_to_end, per_layer, self.checks, self.facts, spans)

    # ------------------------------------------------------------ #
    def _generate(self) -> None:
        """Dataset and query generation, repeated; part of set-up."""
        self._enter("setup")
        for _ in range(self.spec.setup_repeats):
            self.inputs = None  # free the previous copy before building the next
            with self.watch.time("generate"):
                self.inputs = self._build_inputs()
        self.facts["rows"] = self.inputs.db.total_rows()

    def _build_inputs(self) -> Inputs:
        spec, seed = self.spec, self.spec.input_seed
        make_db, make_workload, make_aggregates = _DATASETS[spec.dataset]
        with self._span("datasets.gen"):
            db = make_db(scale=spec.scale, seed=seed)
        with self._span("datasets.workload_gen"):
            rng = np.random.default_rng(seed)
            base = make_workload(db, n_queries=spec.n_queries, seed=seed + 1)
            aggregates = make_aggregates(db, n_queries=spec.n_aggregates, seed=seed + 2)
            if spec.clusters:
                interests = [
                    Workload(members)
                    for members in cluster_queries(db, base, spec.clusters, rng)
                ]
            else:
                unseen = make_workload(
                    db, n_queries=spec.n_reveal_queries, seed=seed + 101
                )
                interests = [base, unseen]
            (train, test), *reveals = [
                interest.split(TEST_FRACTION, rng) for interest in interests
            ]
        return Inputs(db, train, test, reveals, aggregates)

    # ------------------------------------------------------------ #
    def _fit(self) -> tuple[Any, float]:
        """The paper's Setup(s): train + materialize the approximation set."""
        self._enter("fit")
        spec, inputs = self.spec, self.inputs
        config = bench_asqp_config(
            MEMORY_BUDGET, FRAME_SIZE, seed=spec.input_seed, **spec.config
        )
        self.facts["update_epochs"] = config.update_epochs
        key_sets = []
        for _ in range(spec.fits):
            with self.watch.time("fit"):
                model = ASQPTrainer(inputs.db, inputs.train, config).train()
                approx_db = model.approximation_database()
            self.checks.operations()
            self._note_program_times(model.history)
            self.facts["preprocess_timings"] = {
                stage: self.facts["preprocess_timings"].get(stage, 0.0) + seconds
                for stage, seconds in model.preprocessed.timings.items()
            }
            key_sets.append(approximation_keys(approx_db))
            self._check_approximation(key_sets[-1], "fit")
        self.checks.check(
            all(keys == key_sets[0] for keys in key_sets),
            "repeated fits of one seed chose different approximation sets",
        )
        self.facts.update(
            actions=len(model.action_space),
            representatives=model.preprocessed.n_representatives,
            requirement_rows=sum(len(c.requirements) for c in model.coverages),
        )
        self._enter("check")
        score = self._score(approx_db, inputs.test)
        self.checks.check(
            score >= spec.min_fit_score,
            f"fit_score {score:.4f} below {spec.min_fit_score}",
        )
        return model, score

    def _note_program_times(self, records) -> None:
        """The program's own IterationRecord timings, for the trace cross-check."""
        self.facts["program_rollout_s"] += sum(r.rollout_seconds for r in records)
        self.facts["program_update_s"] += sum(r.update_seconds for r in records)

    def _check_approximation(self, keys: list[tuple[str, int]], when: str) -> None:
        db = self.inputs.db
        self.checks.check(
            len(keys) <= MEMORY_BUDGET,
            f"{when}: approximation set has {len(keys)} > k={MEMORY_BUDGET} tuples",
        )
        by_table: dict[str, list[int]] = {}
        for table, row_id in keys:
            by_table.setdefault(table, []).append(row_id)
        self.checks.check(
            all(
                db.has_table(table)
                and bool(np.isin(row_ids, db.table(table).row_ids).all())
                for table, row_ids in by_table.items()
            ),
            f"{when}: approximation set holds a key missing from the base tables",
        )

    def _score(self, approx_db: Database, workload: Workload) -> float:
        """Eq. 1 by ``core.metric``; also checks q(S) is a subset of q(D)."""
        db = self.inputs.db
        value = metric.score(db, approx_db, workload, FRAME_SIZE)
        for query in workload.spj_only().queries:
            full = self._full_provenance.get(id(query))
            if full is None:
                full = frozenset(execute(db, query).provenance_keys())
                self._full_provenance[id(query)] = full
            answer = set(execute(approx_db, query).provenance_keys())
            self.checks.check(
                answer <= full,
                f"{query.name}: approximation answer is not a subset of q(D)",
            )
        return value

    # ------------------------------------------------------------ #
    def _open(self, model, check: bool) -> ASQPSession:
        """save -> load -> open a session: the rest of set-up."""
        self._enter("open")
        directory = tempfile.mkdtemp(dir=self.scratch_dir)
        try:
            with self.watch.time("open"):
                with self._span("persistence.save"):
                    save_model(model, directory)
                with self._span("persistence.load"):
                    loaded = load_model(directory, self.inputs.db)
                session = ASQPSession(loaded, auto_fine_tune=False)
            self.facts["persistence_bytes"] = sum(
                os.path.getsize(os.path.join(directory, name))
                for name in os.listdir(directory)
            )
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        self.checks.operations()
        if check:
            # The policy's own (single, greedy) trajectory must survive the
            # round trip. The *selected* set may differ: load_model re-samples
            # the coverage rows of representatives with more than 5000 result
            # rows, which can change the winner among the candidate rollouts
            # (README).
            self._enter("check")
            self.checks.check(
                session.model.approximation_set(greedy=False).keys()
                == model.approximation_set(greedy=False).keys(),
                "loaded model rolls out a different greedy trajectory",
            )
            self._check_approximation(session.approximation_set.keys(), "open")
        return session

    # ------------------------------------------------------------ #
    def _requests(self, pool_size: int) -> np.ndarray:
        """Indices into the pool, one per request.

        Every run serves the same requests: each query as often as its
        Zipf popularity says, at least once. ``--seed`` draws their order.
        So the latency percentiles of two runs are taken over the same
        queries, and differ only by what the machine and the program did.
        """
        ranks = np.random.default_rng(self.spec.input_seed + 3).permutation(pool_size)
        popularity = (1.0 + ranks) ** -ZIPF_EXPONENT
        share = popularity / popularity.sum()
        counts = np.maximum(1, np.rint(share * self.spec.serve_requests)).astype(int)
        requests = np.repeat(np.arange(pool_size), counts)
        return np.random.default_rng(self.seed).permutation(requests)

    def _serve(self, session: ASQPSession) -> dict:
        """The timed query loop: Zipf-skewed requests over a mixed pool."""
        inputs = self.inputs
        pool = list(inputs.train.queries)
        for reveal_train, reveal_test in inputs.reveals:
            pool += [*reveal_train.queries, *reveal_test.queries]
        pool += inputs.aggregates.queries
        requests = self._requests(len(pool))
        n_requests = len(requests)

        # One untimed pass over the distinct queries fills the lazily built
        # structures of the fresh approximation database and yields the
        # answers that are checked after the loop.
        self._enter("warm")
        first = [session.query(query) for query in pool]

        self._enter("serve")
        starts = np.empty(n_requests)
        ends = np.empty(n_requests)
        same_source = 0
        for i, index in enumerate(requests):
            starts[i] = perf_counter()
            outcome = session.query(pool[index])
            ends[i] = perf_counter()
            same_source += outcome.used_approximation == first[index].used_approximation
        self._request_starts, self._request_ends = starts, ends
        self.checks.operations(n_requests)
        self.checks.check(
            same_source == n_requests,
            f"{n_requests - same_source} requests changed source between calls",
        )

        self._enter("check")
        recalls = np.asarray([
            self._check_answer(session, query, outcome)
            for query, outcome in zip(pool, first)
        ])
        from_approx = np.asarray([outcome.used_approximation for outcome in first])
        return {
            "recall": float(recalls[requests].mean()),
            "approx_frac": float(from_approx[requests].mean()),
            "distinct": len(pool),
        }

    def _check_answer(self, session: ASQPSession, query, outcome) -> float:
        """Check one distinct answer; returns its Eq. 1 recall term."""
        db = self.inputs.db
        if outcome.used_approximation:
            if not query.is_aggregate:
                full = set(execute(db, query).provenance_keys())
                self.checks.check(
                    set(outcome.result.provenance_keys()) <= full,
                    f"{query.name}: served rows are not a subset of q(D)",
                )
            return metric.score(db, session.approx_db, Workload([query]), FRAME_SIZE)
        if query.is_aggregate:
            same = (
                outcome.result.as_mapping()
                == execute_aggregate(db, query).as_mapping()
            )
        else:
            same = sorted(outcome.result.provenance_keys()) == sorted(
                execute(db, query).provenance_keys()
            )
        self.checks.check(same, f"{query.name}: full-database answer differs")
        return 1.0

    # ------------------------------------------------------------ #
    def _drift(self, session: ASQPSession, scored: bool) -> dict:
        """Reveal each new interest in turn: fine-tune, refresh, re-score.

        Every opened session is fine-tuned (the timing's repeats); only the
        first is scored and checked, the others must end on the same set.
        """
        inputs = self.inputs
        actions_before = len(session.model.action_space)
        reveal_scores = []
        for reveal_train, reveal_test in inputs.reveals:
            self._enter("check")
            before = self._score(session.approx_db, reveal_test) if scored else 0.0
            history_length = len(session.model.history)
            self._enter("drift")
            with self.watch.time("fine_tune"):
                session.fine_tune(list(reveal_train.queries))
            self.checks.operations()
            self._note_program_times(session.model.history[history_length:])
            if not scored:
                continue
            self._enter("check")
            after = self._score(session.approx_db, reveal_test)
            reveal_scores.append((before, after))
            if self.spec.clusters:
                self.checks.check(
                    after > before,
                    f"fine-tune did not lift its cluster ({before:.4f} -> {after:.4f})",
                )
        self._enter("check")
        keys = session.approximation_set.keys()
        if not scored:
            return {"keys": keys}
        actions_added = len(session.model.action_space) - actions_before
        self.facts["actions_added"] = actions_added
        self.checks.check(actions_added > 0, "fine-tuning added no actions")
        self._check_approximation(keys, "drift")
        return {
            "keys": keys,
            "drift_score": statistics.fmean(
                self._score(session.approx_db, reveal_test)
                for _, reveal_test in inputs.reveals
            ),
            "retained_score": self._score(session.approx_db, inputs.test),
            "reveal_scores": reveal_scores,
        }

    # ------------------------------------------------------------ #
    def _cross_check(self, per_layer: dict[str, tuple[float, str]]) -> None:
        """Benchmark-side spans must agree with the program's own timers."""
        pairs = (
            ("rl.rollout.busy_s+rl.buffer_build_s", "rl.rollout.program_s"),
            ("rl.update.busy_s", "rl.update.program_s"),
            ("preprocess.busy_s", "preprocess.program_s"),
        )
        for measured_names, program_name in pairs:
            measured = sum(per_layer[name][0] for name in measured_names.split("+"))
            program = per_layer[program_name][0]
            self.checks.check(
                abs(measured - program) <= 0.05 * program,
                f"{measured_names}={measured:.4f} vs {program_name}={program:.4f}",
            )
