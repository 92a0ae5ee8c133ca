"""Micro-benchmark of the vectorized execution kernels and CSR tracker.

Times each hot-path kernel — equi-join, stable distinct, group-by, the
CoverageIndex build and the CoverageTracker batch add/remove/probe
operations — on seeded synthetic data, against the retained
pre-vectorization reference implementations (``repro.db.kernels.reference_*`` and
``repro.core.reward.DictCoverageTracker``), plus the two halves of a
training iteration at figure scale: the lock-step rollout collector
(|A| = 800) against one actor at a time, and the PPO update on a
1448 × 828 batch against the interleaved actor-then-critic loop the
tests retain, with the peak that update holds; the 13
rollouts of Alg. 2 one ``approximation_set()`` makes; and the two
per-distinct-value kernels of a fit's pre-processing, ``embed_actions``
and ``compute_table_stats`` — those three against the loops the tests
retain. Two rows time a kernel against the form it replaced: a join-key
NDV count by ``sorted_unique`` against numpy 2.x's hash-set ``np.unique``,
and a primary-key probe against the probe's three-repeat form. Writes
``BENCH_kernels.json``
so the performance trajectory of these kernels is tracked in-repo.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernels.py                  # full profile
    PYTHONPATH=src python benchmarks/bench_kernels.py --profile fast   # CI smoke
    PYTHONPATH=src python benchmarks/bench_kernels.py --profile fast \
        --check BENCH_kernels.json --max-regression 2.0

``--check`` compares the freshly measured vectorized timings against a
committed baseline file and exits non-zero if any kernel regressed by
more than ``--max-regression``, or if the serial encoded scan costs more
than 1.25x the plain scan (see ``scripts/bench_smoke.sh``).

This file is not a pytest benchmark: it is a standalone script so CI can
run it without the pytest-benchmark plugin.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))  # for ``tests``

from repro import obs
from repro.core import (
    Action,
    ActionSpace,
    ASQPConfig,
    GSLEnvironment,
    generate_approximation_set,
)
from repro.core.preprocess import embed_actions, preprocess
from repro.core.reward import (
    CoverageIndex,
    CoverageTracker,
    DictCoverageTracker,
    QueryCoverage,
)
from repro.datasets import load_imdb
from repro.db import Column, ColumnType, Table, TableSchema, kernels
from repro.db.statistics import compute_table_stats
from repro.embedding import TupleEmbedder
from repro.rl import (
    ActorNetwork,
    CriticNetwork,
    MultiActorCollector,
    PPOUpdater,
    RolloutBatch,
    RolloutBuffer,
    make_actor_specs,
)

#: Speedups the tentpole must hold at the 10k-row profile (join and the
#: coverage hot paths are the acceptance-gated kernels; distinct/group and
#: the raw batch-update path ride along). ``coverage_probe`` is the BRT /
#: greedy inner loop — reset, add a candidate set, score — where the
#: legacy tracker rebuilds its missing-requirement dict per candidate.
#: ``coverage_batch`` (raw add/remove) is reported but ungated: both
#: implementations pay the same per-key tuple hash to intern keys, which
#: caps that path's speedup near 3x regardless of the update structure.
REQUIRED_SPEEDUPS = {
    "join_10k": 5.0,
    "coverage_probe": 5.0,
    "coverage_score_with_keys": 5.0,
}

PROFILES = {
    # rows are identical between profiles so the JSON is comparable;
    # "fast" only lowers the repeat count for CI smoke runs.
    "full": {"repeats": 5},
    "fast": {"repeats": 2},
}

N_ROWS = 10_000

#: Action-space size of the rl rows: the figure-scale fit's (|A| = 828).
N_ACTIONS = 800

#: Row count for the column-store section, identical between profiles
#: for comparability.
COLUMNSTORE_ROWS = 120_000

#: ``--check`` also fails when the serial encoded scan costs more than
#: this multiple of the plain (decoded) scan.
MAX_SERIAL_SCAN_RATIO = 1.25


def _best_of(fn, repeats: int) -> float:
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


# ------------------------------------------------------------------ #
# workloads
# ------------------------------------------------------------------ #
def _join_workload(rng: np.random.Generator):
    build = [
        rng.integers(0, N_ROWS // 2, size=N_ROWS),
        rng.integers(0, 50, size=N_ROWS),
    ]
    probe = [
        rng.integers(0, N_ROWS // 2, size=N_ROWS),
        rng.integers(0, 50, size=N_ROWS),
    ]
    return build, probe


def _distinct_workload(rng: np.random.Generator):
    labels = np.asarray([f"v{i}" for i in range(64)], dtype=object)
    return [
        rng.integers(0, 200, size=N_ROWS),
        labels[rng.integers(0, len(labels), size=N_ROWS)],
    ]


def _group_workload(rng: np.random.Generator):
    return [
        rng.integers(0, 500, size=N_ROWS),
        rng.integers(0, 8, size=N_ROWS),
    ]


def _coverage_fixture(rng: np.random.Generator):
    """Synthetic provenance requirements plus seeded add/remove batches.

    Columnar, as the executor produces them: each query spans one to three
    of the tables and holds one row id per table for each of its rows (the
    reference tracker reads the coverages' tuple view). The id space is
    deliberately much smaller than the requirement count: exploratory
    workloads share hot provenance tuples across queries (that overlap is
    why approximation sets work at all), so a realistic tracker workload
    has each key appearing in several queries' requirement rows.
    """
    tables = ["t0", "t1", "t2", "t3"]
    n_ids = 600
    coverages = []
    for q in range(200):
        spans = sorted(
            rng.choice(tables, size=int(rng.integers(1, 4)), replace=False).tolist()
        )
        coverages.append(
            QueryCoverage(
                name=f"q{q}",
                weight=float(rng.uniform(0.5, 2.0)),
                denominator=50,
                tables=spans,
                ids=rng.integers(0, n_ids, size=(50, len(spans))),
            )
        )
    universe = [
        (table, int(i)) for table in tables for i in rng.integers(0, n_ids, size=400)
    ]
    # Environment-step-sized add/remove batches (one action group each).
    batches = []
    for _ in range(16):
        picks = rng.integers(0, len(universe), size=500)
        added = [universe[int(p)] for p in picks]
        removed = added[: len(added) // 2]
        batches.append((added, removed))
    # BRT-sized candidate sets: whole approximation sets of ~k tuples,
    # probed from scratch (reset + add + score) per combination.
    candidates = []
    for _ in range(8):
        picks = rng.integers(0, len(universe), size=2_000)
        candidates.append([universe[int(p)] for p in picks])
    return coverages, batches, candidates


def _run_coverage_batches(tracker, batches) -> None:
    tracker.reset()
    for added, removed in batches:
        tracker.add_keys(added)
        tracker.batch_score()
        tracker.remove_keys(removed)
        tracker.batch_score()


def _run_coverage_candidate_probes(tracker, candidates) -> None:
    # Verbatim the BruteForce inner loop: score each candidate set from
    # an empty tracker (legacy reset() rebuilds the missing-dict from all
    # requirements; CSR reset() is three array copies).
    for candidate in candidates:
        tracker.reset()
        tracker.add_keys(candidate)
        tracker.batch_score()


def _run_coverage_probes(tracker, batches) -> None:
    for added, _ in batches:
        tracker.score_with_keys(added)


def _rollout_fixture(coverages, rng: np.random.Generator) -> MultiActorCollector:
    """8 logical actors on a GSL environment of ``N_ACTIONS`` 8-tuple groups
    sharing one coverage index, the way ``run_training_loop`` builds them;
    the budget ends an episode after ~50 steps."""
    universe = sorted({key for c in coverages for row in c.requirements for key in row})
    actions = [
        Action(
            keys=tuple(universe[int(p)] for p in rng.integers(0, len(universe), size=8)),
            source_query=a % len(coverages),
        )
        for a in range(N_ACTIONS)
    ]
    space = ActionSpace(actions, embedding_dim=8)
    config = ASQPConfig(memory_budget=400, query_batch_size=16, seed=0)
    index = CoverageIndex(coverages)
    env_seeds = iter(np.random.SeedSequence(3).spawn(8))
    return MultiActorCollector(
        lambda: GSLEnvironment(
            space, coverages, config, np.random.default_rng(next(env_seeds)),
            coverage_index=index,
        ),
        ActorNetwork(N_ACTIONS, rng),
        CriticNetwork(N_ACTIONS, rng),
        make_actor_specs(8, seed=5),
    )


def _collect_one_actor_at_a_time(collector: MultiActorCollector) -> None:
    """The collector before it was batched: every actor in turn, one forward
    pass of each network and one draw per step."""
    for env, spec in zip(collector.environments, collector.specs):
        state, mask = env.reset()
        done = False
        while not done and mask.any():
            decision = collector.actor.sample(state, mask, spec.rng, spec.temperature)
            collector.critic.value(state[None, :])
            state, _, done, mask = env.step(decision.action)


def _approx_set_fixture():
    """An actor over |A| = 828 six-tuple groups (hidden 128/64) and k = 1000:
    a rollout of Alg. 2 takes ~170 steps, the figure-scale fit's."""
    rng = np.random.default_rng(29)
    actions = [
        Action(
            keys=tuple(
                (f"t{j % 3}", int(row))
                for j, row in enumerate(rng.integers(0, 20_000, size=6))
            ),
            source_query=a % 35,
        )
        for a in range(828)
    ]
    space = ActionSpace(actions, embedding_dim=8)
    return ActorNetwork(len(space), rng), space, ASQPConfig(memory_budget=1000, seed=0)


def _candidate_rollouts(generate, actor, space, config) -> None:
    """What one ``TrainedModel.approximation_set()`` rolls out: the greedy
    trajectory, then 12 sampled ones off one generator."""
    rng = np.random.default_rng(31)
    for greedy in [True] + [False] * 12:
        generate(actor, space, config, rng=rng, greedy=greedy)


def _embed_fixture():
    """A seeded figure-scale IMDB action space (~800 actions) and what
    embeds it: the database, the actions, the statistics."""
    bundle = load_imdb(scale=0.35, n_queries=50)
    config = ASQPConfig(action_space_target=N_ACTIONS, seed=7)
    prep = preprocess(bundle.db, bundle.workload, config)
    return bundle.db, list(prep.action_space), prep.stats


def _str_table() -> Table:
    """One 120k-row STR column: 20 000 distinct values (past the
    ``max_distinct`` cut-off), a tenth of the rows NULL."""
    rng = np.random.default_rng(23)
    words = np.asarray([""] + [f"word {i}" for i in range(20_000)], dtype=object)
    picks = rng.integers(1, len(words), size=COLUMNSTORE_ROWS)
    picks[rng.random(COLUMNSTORE_ROWS) < 0.1] = 0
    schema = TableSchema("words", (Column("word", ColumnType.STR, nullable=True),))
    return Table(schema, {"word": words[picks]})


def _update_fixture() -> tuple[PPOUpdater, RolloutBatch]:
    """Actor + critic (hidden 128/64) and one ``fit_small_train`` iteration's
    batch (1448 × 828 bool states), so ``update`` is four epochs of 23
    minibatches."""
    from tests.test_rl_memory import multi_hot_batch

    batch = multi_hot_batch()
    rng = np.random.default_rng(3)
    n_actions = batch.masks.shape[1]
    actor, critic = ActorNetwork(n_actions, rng), CriticNetwork(n_actions, rng)
    return PPOUpdater(actor, critic, rng=rng), batch


# ------------------------------------------------------------------ #
def run_benchmarks(profile: str) -> dict:
    repeats = PROFILES[profile]["repeats"]
    record: dict = {"profile": profile, "rows": N_ROWS, "kernels": {}}

    def measure(name: str, reference, vectorized, units: int, calls: int = 1) -> None:
        """``reference`` is None for a row with no retained reference;
        a sub-millisecond row times ``calls`` calls and reports one."""

        def per_call(fn) -> float:
            return _best_of(lambda: [fn() for _ in range(calls)], repeats) / calls

        ref_s = per_call(reference) if reference is not None else None
        vec_s = per_call(vectorized)
        record["kernels"][name] = {
            "reference_s": ref_s,
            "vectorized_s": vec_s,
            "speedup": ref_s / vec_s if ref_s is not None and vec_s > 0 else None,
            "units_per_s": units / vec_s if vec_s > 0 else float("inf"),
        }

    rng = np.random.default_rng(7)
    build, probe = _join_workload(rng)
    measure(
        "join_10k",
        lambda: kernels.reference_join_positions(build, probe),
        lambda: kernels.join_positions(build, probe),
        units=len(build[0]) + len(probe[0]),
    )

    distinct_arrays = _distinct_workload(rng)
    measure(
        "distinct_10k",
        lambda: kernels.reference_distinct_positions(distinct_arrays),
        lambda: kernels.distinct_positions(distinct_arrays),
        units=len(distinct_arrays[0]),
    )

    group_arrays = _group_workload(rng)
    measure(
        "group_by_10k",
        lambda: kernels.reference_group_by_positions(group_arrays),
        lambda: kernels.group_by_positions(group_arrays),
        units=len(group_arrays[0]),
    )

    # Approximation-set sizes, the regime most served queries run in
    # (k = 1000 tuples a set): 100 and 200 rows of ids over a 60 000-wide
    # span. Their own generator, so the rows below keep their inputs.
    sparse_rng = np.random.default_rng(17)
    build_ids, probe_ids = (sparse_rng.integers(0, 60_000, size=n) for n in (100, 200))
    all_ids = [np.concatenate([build_ids, probe_ids])]
    for name, reference, vectorized, args in (
        ("join_300_sparse", kernels.reference_join_positions,
         kernels.join_positions, ([build_ids], [probe_ids])),
        ("distinct_300_sparse", kernels.reference_distinct_positions,
         kernels.distinct_positions, (all_ids,)),
        ("group_by_300_sparse", kernels.reference_group_by_positions,
         kernels.group_by_positions, (all_ids,)),
    ):
        measure(
            name, lambda: reference(*args), lambda: vectorized(*args),
            units=len(all_ids[0]), calls=200,
        )

    # What `_join_order` counts per join key: a sampled int64 key column
    # (8192 rows at most), by numpy 2.x's hash-set np.unique and by the
    # sort. Their own generator again, so the rows below keep their inputs.
    probe_rng = np.random.default_rng(19)
    ndv_keys = probe_rng.integers(0, 3000, size=8000)
    measure(
        "ndv_8k_int64",
        lambda: np.unique(ndv_keys),
        lambda: kernels.sorted_unique(ndv_keys),
        units=len(ndv_keys), calls=50,
    )

    # A primary-key probe: 50 000 unique build keys, 100 000 probe rows
    # (about two thirds hit), against the probe's three-repeat form.
    from tests.test_kernels import three_repeat_probe

    pk_codes = probe_rng.permutation(50_000)
    pk_probe = probe_rng.integers(0, 75_000, size=100_000)
    pk_index = kernels.build_join_index(pk_codes, 75_000)
    measure(
        "join_pk_probe",
        lambda: three_repeat_probe(pk_probe, *pk_index),
        lambda: kernels.probe_factorized(pk_probe, *pk_index),
        units=len(pk_probe),
    )

    # The sort under all three kernels and the CoverageIndex build, alone:
    # 50 000 codes over 2000 values, against numpy's int64 stable sort.
    sort_codes = sparse_rng.integers(0, 2000, size=50_000)
    measure(
        "stable_argsort_50k",
        lambda: np.argsort(sort_codes, kind="stable"),
        lambda: kernels.stable_argsort(sort_codes, 2000),
        units=len(sort_codes),
    )

    coverages, batches, candidates = _coverage_fixture(rng)
    # The incidence is built once per coverage list and shared: the first
    # row is that one build (against the legacy tracker's own), the second
    # what each further tracker costs with the index against without it.
    n_requirement_rows = sum(len(c.requirements) for c in coverages)
    measure(
        "coverage_index_build",
        lambda: DictCoverageTracker(coverages),
        lambda: CoverageIndex(coverages),
        units=n_requirement_rows,
    )
    index = CoverageIndex(coverages)
    measure(
        "coverage_tracker_from_index",
        lambda: CoverageTracker(coverages),
        lambda: CoverageTracker(coverages, index),
        units=n_requirement_rows,
    )
    csr = CoverageTracker(coverages, index)
    legacy = DictCoverageTracker(coverages)
    n_batch_keys = sum(len(a) + len(r) for a, r in batches)
    measure(
        "coverage_batch",
        lambda: _run_coverage_batches(legacy, batches),
        lambda: _run_coverage_batches(csr, batches),
        units=n_batch_keys,
    )
    measure(
        "coverage_probe",
        lambda: _run_coverage_candidate_probes(legacy, candidates),
        lambda: _run_coverage_candidate_probes(csr, candidates),
        units=sum(len(c) for c in candidates),
    )
    csr.reset()
    legacy.reset()
    warm = [key for added, _ in batches[:4] for key in added]
    csr.add_keys(warm)
    legacy.add_keys(warm)
    measure(
        "coverage_score_with_keys",
        lambda: _run_coverage_probes(legacy, batches),
        lambda: _run_coverage_probes(csr, batches),
        units=sum(len(a) for a, _ in batches),
    )

    collector = _rollout_fixture(coverages, rng)
    buffer = RolloutBuffer()
    collector.collect(1, buffer)  # also warms the shared interned-action memo
    measure(
        "rollout_collect",
        lambda: _collect_one_actor_at_a_time(collector),
        lambda: collector.collect(1, RolloutBuffer()),
        units=len(buffer),
    )
    # The critic's epochs on their own lane against both networks stepped
    # in turn on one thread.
    from tests.test_rl_batched import reference_update

    updater, batch = _update_fixture()
    measure(
        "ppo_update",
        lambda: reference_update(updater, batch),
        lambda: updater.update(batch),
        units=len(batch) * updater.config.update_epochs,
    )
    # What the same update holds at its peak, not how long it takes: in
    # batch × |A| float64 arrays, over a batch of bool states.
    from tests.test_rl_memory import batch_arrays, update_peak

    record["ppo_update_peak"] = {
        "unit": "batch x |A| float64 arrays",
        "shape": list(batch.masks.shape),
        "batch": batch_arrays(batch),
        "peak": update_peak(updater.config, batch),
    }

    # Alg. 2 with the first layer as a running sum against the loop that
    # pushed the whole multi-hot state through the actor at every step.
    from tests.test_inference_incremental import reference_generate

    policy = _approx_set_fixture()
    measure(
        "approx_set_rollouts",
        lambda: _candidate_rollouts(reference_generate, *policy),
        lambda: _candidate_rollouts(generate_approximation_set, *policy),
        units=13,
    )

    # Per-distinct-value pre-processing against the per-row loops the
    # tests keep as references. A fresh embedder per call: hashing each
    # distinct token once is part of what a fit pays.
    from tests.test_statistics_sampling_cache import reference_table_stats
    from tests.test_tuple_embed_kernel import reference_embed_actions

    db, actions, stats = _embed_fixture()
    measure(
        "embed_actions_imdb",
        lambda: reference_embed_actions(db, actions, TupleEmbedder(stats=stats)),
        lambda: embed_actions(db, actions, TupleEmbedder(stats=stats)),
        units=len(actions),
    )
    words = _str_table()
    measure(
        "table_stats_str",
        lambda: reference_table_stats(words),
        lambda: compute_table_stats(words),
        units=len(words),
    )
    return record


def run_obs_overhead(repeats: int) -> dict:
    """Measure the cost of *instrumentation* on the vectorized kernels.

    Times each kernel with observability disabled (the default, where an
    instrumentation site is one flag check) and enabled (spans + metric
    histograms recording), and reports the per-kernel and median overhead
    fractions. The disabled numbers are the contract: DESIGN.md promises
    zero overhead when off, and ``--obs-check`` gates the *median*
    enabled-vs-disabled overhead (medians absorb single-kernel timing
    noise that best-of-N repeats cannot).
    """
    rng = np.random.default_rng(7)
    build, probe = _join_workload(rng)
    distinct_arrays = _distinct_workload(rng)
    group_arrays = _group_workload(rng)
    cases = {
        "join_10k": lambda: kernels.join_positions(build, probe),
        "distinct_10k": lambda: kernels.distinct_positions(distinct_arrays),
        "group_by_10k": lambda: kernels.group_by_positions(group_arrays),
        "factorize_10k": lambda: kernels.factorize_keys(distinct_arrays),
    }
    entries: dict = {}
    overheads = []
    rounds = max(5 * repeats, 10)
    batch = 3
    # The enabled arm runs under an active request context, as a served
    # query does, so the <2% budget covers spans and metric histograms.
    request = obs.context.new_context(fingerprint="bench_obs_overhead")
    try:
        for name, fn in cases.items():
            # Warm both paths first (the first enabled call allocates the
            # metric histograms). Each round then times one disabled and
            # one enabled batch back to back and keeps their ratio: the
            # paired samples see the same machine state, so slow drift
            # cancels, and the median over rounds absorbs the jitter that
            # a best-of floor cannot.
            obs.disable()
            fn()
            obs.enable()
            with obs.context.activate(request):
                fn()
            ratios = []
            disabled_best = enabled_best = np.inf
            for _ in range(rounds):
                obs.disable()
                start = time.perf_counter()
                for _ in range(batch):
                    fn()
                disabled_t = time.perf_counter() - start
                obs.enable()
                with obs.context.activate(request):
                    start = time.perf_counter()
                    for _ in range(batch):
                        fn()
                    enabled_t = time.perf_counter() - start
                ratios.append(enabled_t / disabled_t)
                disabled_best = min(disabled_best, disabled_t / batch)
                enabled_best = min(enabled_best, enabled_t / batch)
            overhead = float(np.median(ratios)) - 1.0
            overheads.append(overhead)
            entries[name] = {
                "disabled_s": disabled_best,
                "enabled_s": enabled_best,
                "overhead_fraction": overhead,
            }
    finally:
        obs.disable()
        obs.metrics.reset()
    return {
        "kernels": entries,
        "median_overhead_fraction": float(np.median(overheads)),
    }


def run_profile_overhead(repeats: int, hz: float = 100.0) -> dict:
    """Measure the cost of the *running* sampling profiler on the kernels.

    Same paired-interleaved-batch scheme as :func:`run_obs_overhead`,
    but the varied condition is the background sampler: each round times
    one batch with the profiler stopped and one with it running at
    ``hz``, keeping the per-round ratio. ``--profile-check`` gates the
    median — a statistical sampler reading ``sys._current_frames()``
    from another thread should cost well under 5% at 100 hz.
    """
    from repro.obs import profiler as obs_profiler

    rng = np.random.default_rng(11)
    build, probe = _join_workload(rng)
    distinct_arrays = _distinct_workload(rng)
    group_arrays = _group_workload(rng)
    cases = {
        "join_10k": lambda: kernels.join_positions(build, probe),
        "distinct_10k": lambda: kernels.distinct_positions(distinct_arrays),
        "group_by_10k": lambda: kernels.group_by_positions(group_arrays),
        "factorize_10k": lambda: kernels.factorize_keys(distinct_arrays),
    }
    entries: dict = {}
    overheads = []
    rounds = max(5 * repeats, 10)
    batch = 3
    try:
        for name, fn in cases.items():
            fn()  # warm caches once before any timing
            ratios = []
            stopped_best = running_best = np.inf
            for _ in range(rounds):
                obs_profiler.stop()
                start = time.perf_counter()
                for _ in range(batch):
                    fn()
                stopped_t = time.perf_counter() - start
                obs_profiler.start(hz=hz)
                start = time.perf_counter()
                for _ in range(batch):
                    fn()
                running_t = time.perf_counter() - start
                ratios.append(running_t / stopped_t)
                stopped_best = min(stopped_best, stopped_t / batch)
                running_best = min(running_best, running_t / batch)
            overhead = float(np.median(ratios)) - 1.0
            overheads.append(overhead)
            entries[name] = {
                "stopped_s": stopped_best,
                "running_s": running_best,
                "overhead_fraction": overhead,
            }
    finally:
        obs_profiler.stop()
    return {
        "hz": hz,
        "kernels": entries,
        "median_overhead_fraction": float(np.median(overheads)),
    }


def run_audit_overhead(repeats: int) -> dict:
    """Measure the cost of shadow auditing on end-to-end query serving.

    Builds one micro trained session (flights at scale 0.12, ASQP-Light)
    and serves its workload under the audit governor at the default
    audit rate. Both overhead components are *directly attributed*
    rather than inferred from paired A/B round ratios — on a one-core
    container the per-round jitter of millisecond serving batches is
    +/-30%, an order of magnitude above the signal, so a paired median
    either hides a ~10ms audit spike or reports pure scheduler noise as
    overhead:

    * **accounting** — the per-query cost of the always-on admission
      decision. The exact call the session makes per served query
      (``Governor.admit``: served seconds, coin, budget) is micro-timed
      over thousands of iterations on a probe governor and divided by
      the measured per-query serving time. Both numerator and
      denominator are tight-loop averages, stable to a few percent
      where the paired ratio swung by whole percentage points of
      overhead.
    * **audit time** — the ground-truth re-executions themselves: the
      session wraps each audit in a ``perf_counter`` pair and the
      governor accumulates the spent seconds, so this component is
      exact wall-clock attribution (audit seconds over serving seconds
      across the governed phase, first always-allowed audit excluded
      via snapshots).

    The governor in :mod:`repro.obs.quality` keeps the audit component
    under ``MAX_OVERHEAD`` (1%) of serving time by construction —
    beyond the always-allowed first audit it only admits an audit the
    remaining budget can cover — so the combined gate at <2% fails only
    when the governor or the accounting hot path breaks, not when the
    machine is noisy. The audit counts are the read-time fold
    (``quality.accounting``) over the governed phase's rows.
    """
    from repro.core import ASQPConfig, ASQPSession, ASQPTrainer
    from repro.datasets import load_flights
    from repro.obs import quality, rundir, telemetry

    bundle = load_flights(scale=0.12, n_queries=6, n_aggregate_queries=2)
    config = ASQPConfig.light(
        memory_budget=120, frame_size=20, n_iterations=2,
        learning_rate=1e-3, seed=0,
    )
    obs.disable()
    model = ASQPTrainer(bundle.db, bundle.workload, config).train()
    session = ASQPSession(model, auto_fine_tune=False)
    queries = list(bundle.workload)[:4]

    def serve() -> None:
        for query in queries:
            session.query(query)

    serves = max(60 * repeats, 120)
    hook_loops = 20_000
    governor = quality.GOVERNOR
    obs.enable()
    governor.reset(0.0)
    gc_was_enabled = gc.isenabled()
    try:
        serve()  # warm: result cache, metric histograms
        # Baseline per-query serving time, rate 0 (no audit admitted).
        # The collector is paused during timed phases — session serving
        # is allocation-heavy and a GC pause inside the loop would
        # inflate the average the accounting fraction divides by.
        gc.collect()
        gc.disable()
        start = time.perf_counter()
        for _ in range(serves):
            serve()
        baseline_t = time.perf_counter() - start
        if gc_was_enabled:
            gc.enable()
        per_query = baseline_t / (serves * len(queries))

        # Governed phase: same workload volume at the default rate.
        governor.reset(quality.DEFAULT_AUDIT_RATE)
        serve()  # warm the governor: first (always-allowed) audit lands
        audit_s0 = governor.audit_seconds
        serving_s0 = governor.serving_seconds
        telemetry.reset()
        start = time.perf_counter()
        for _ in range(serves):
            serve()
        monitored_t = time.perf_counter() - start
        counts = quality.accounting(
            rundir.Run("audit-check", records=telemetry.records())
        )["counts"]
        served = governor.serving_seconds - serving_s0
        audit_fraction = (
            (governor.audit_seconds - audit_s0) / served if served > 0 else 0.0
        )

        # Accounting micro-bench: the exact per-query admission call on
        # a probe governor (so the governed phase's state stays its
        # own). The trace id's audit-coin hex window is all zeros,
        # forcing the coin to *pass* so the probe times the longest
        # path (coin plus budget).
        probe = quality.Governor(quality.DEFAULT_AUDIT_RATE)
        tid = "deadbeef00000000deadbeefdeadbeef"
        gc.collect()
        gc.disable()
        start = time.perf_counter()
        for _ in range(hook_loops):
            probe.admit(tid, 0.0, True)
        hook_t = time.perf_counter() - start
        if gc_was_enabled:
            gc.enable()
        accounting = (hook_t / hook_loops) / per_query
    finally:
        governor.reset(0.0)
        obs.disable()
        obs.metrics.reset()
        obs.trace.reset()
        obs.telemetry.reset()
    disabled_best = baseline_t / serves
    enabled_best = monitored_t / serves
    overhead = accounting + audit_fraction
    return {
        "kernels": {
            "session_serving": {
                "disabled_s": disabled_best,
                "enabled_s": enabled_best,
                "overhead_fraction": overhead,
            }
        },
        "accounting_overhead_fraction": accounting,
        "audit_time_fraction": audit_fraction,
        "median_overhead_fraction": overhead,
        "audit_counts": counts,
    }


def _columnstore_fixture():
    """A 120k-row table with a sorted int, a dict-string, and a float.

    ``city`` has 200 distinct values, so its predicate runs on codes;
    ``ts`` and ``value`` are plain columns the predicate reads as they
    are stored.
    """
    from repro.db import Column, ColumnType, Database, Table, TableSchema, sql

    rng = np.random.default_rng(13)
    n = COLUMNSTORE_ROWS
    cities = np.asarray([f"city_{i:03d}" for i in range(200)], dtype=object)
    schema = TableSchema(
        "bench",
        (
            Column("city", ColumnType.STR),
            Column("ts", ColumnType.INT),
            Column("value", ColumnType.FLOAT),
        ),
    )
    table = Table(
        schema,
        {
            "city": cities[rng.integers(0, len(cities), size=n)],
            "ts": np.sort(rng.integers(0, 10_000_000, size=n)),
            "value": rng.normal(size=n),
        },
    )
    db = Database([table])
    # ~10% of the ts range plus a string inequality the rewrite turns into codes.
    query = sql(
        "SELECT city, ts, value FROM bench "
        "WHERE ts BETWEEN 4000000 AND 5000000 AND city != 'city_000'"
    )
    return db, table, query


def run_columnstore(repeats: int) -> dict:
    """The serial scan cost of a predicate on codes versus on values.

    The serial comparison is kernel-level and apples-to-apples: the same
    predicate evaluated over decoded arrays (plain) versus its
    code-space rewrite over the stored int32 codes (encoded, the path
    the executor runs with late materialization). ``serial_ratio`` is
    the acceptance-gated number — encoded must stay within the allowed
    factor of plain.
    """
    from repro.db import expressions as E

    db, table, query = _columnstore_fixture()
    record: dict = {"rows": len(table)}
    refs = [f"bench.{c.name}" for c in table.schema.columns]
    plain_context = {f"bench.{name}": table.column(name) for name in ("city", "ts", "value")}
    encoding = table.encoding("city")
    encoded_context = dict(plain_context)
    encoded_context["bench.city"] = encoding.codes
    rewritten = E.rewrite_for_codes(
        query.predicate, {"bench.city": encoding.dictionary}, refs
    )
    assert rewritten is not None, "bench predicate must be code-rewritable"

    plain_s = _best_of(
        lambda: np.flatnonzero(query.predicate.evaluate(plain_context)), repeats
    )
    encoded_s = _best_of(
        lambda: np.flatnonzero(rewritten.evaluate(encoded_context)), repeats
    )
    record["serial_scan"] = {
        "plain_s": plain_s,
        "encoded_s": encoded_s,
        "serial_ratio": encoded_s / plain_s if plain_s > 0 else float("inf"),
    }
    return record


def check_regressions(record: dict, baseline_path: Path, max_regression: float) -> list[str]:
    baseline = json.loads(baseline_path.read_text())
    failures = []
    for name, entry in record["kernels"].items():
        base = baseline.get("kernels", {}).get(name)
        if base is None:
            continue
        if entry["vectorized_s"] > max_regression * base["vectorized_s"]:
            failures.append(
                f"{name}: {entry['vectorized_s'] * 1e3:.3f} ms vs baseline "
                f"{base['vectorized_s'] * 1e3:.3f} ms (> {max_regression:.1f}x)"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--profile", choices=sorted(PROFILES), default="full")
    parser.add_argument("--output", type=Path, default=None,
                        help="write the JSON record here (default: repo-root "
                             "BENCH_kernels.json; '-' to skip)")
    parser.add_argument("--check", type=Path, default=None,
                        help="baseline BENCH_kernels.json to compare against")
    parser.add_argument("--max-regression", type=float, default=2.0)
    parser.add_argument("--obs-check", action="store_true",
                        help="also measure instrumentation overhead "
                             "(enabled vs disabled) and gate the median")
    parser.add_argument("--obs-tolerance", type=float, default=0.02,
                        help="maximum tolerated median overhead fraction "
                             "of enabled instrumentation (default 2%%)")
    parser.add_argument("--profile-check", action="store_true",
                        help="also measure the running sampling profiler's "
                             "overhead on the kernels and gate the median")
    parser.add_argument("--profile-tolerance", type=float, default=0.05,
                        help="maximum tolerated median overhead fraction "
                             "of the 100hz sampling profiler (default 5%%)")
    parser.add_argument("--audit-check", action="store_true",
                        help="also measure shadow-audit overhead on "
                             "end-to-end query serving (audit governor "
                             "at the default rate vs rate 0) and gate "
                             "the sum")
    parser.add_argument("--audit-tolerance", type=float, default=0.02,
                        help="maximum tolerated median serving overhead "
                             "fraction of shadow auditing (default 2%%)")
    args = parser.parse_args(argv)

    record = run_benchmarks(args.profile)

    width = max(len(name) for name in record["kernels"])
    print(f"{'kernel'.ljust(width)}  reference    vectorized   speedup")
    for name, entry in record["kernels"].items():
        if entry["reference_s"] is None:
            print(f"{name.ljust(width)}  {'-':>12}  {entry['vectorized_s'] * 1e3:9.3f} ms")
            continue
        print(
            f"{name.ljust(width)}  {entry['reference_s'] * 1e3:9.3f} ms"
            f"  {entry['vectorized_s'] * 1e3:9.3f} ms"
            f"  {entry['speedup']:6.1f}x"
        )

    peak = record["ppo_update_peak"]
    print(
        f"{'ppo_update_peak'.ljust(width)}  {'-':>12}  {peak['peak']:9.3f} {peak['unit']} "
        f"at {peak['shape'][0]} x {peak['shape'][1]} (the batch itself: {peak['batch']:.3f})"
    )

    status = 0
    for name, required in REQUIRED_SPEEDUPS.items():
        speedup = record["kernels"][name]["speedup"]
        if speedup < required:
            print(f"FAIL: {name} speedup {speedup:.1f}x < required {required:.1f}x")
            status = 1

    if args.check is not None:
        failures = check_regressions(record, args.check, args.max_regression)
        for failure in failures:
            print(f"REGRESSION: {failure}")
        if failures:
            status = 1

    if args.obs_check:
        overhead = run_obs_overhead(PROFILES[args.profile]["repeats"])
        record["observability"] = {
            **overhead,
            "tolerance": args.obs_tolerance,
            "ok": overhead["median_overhead_fraction"] <= args.obs_tolerance,
        }
        print(f"\n{'kernel'.ljust(width)}  disabled     enabled      overhead")
        for name, entry in overhead["kernels"].items():
            print(
                f"{name.ljust(width)}  {entry['disabled_s'] * 1e3:9.3f} ms"
                f"  {entry['enabled_s'] * 1e3:9.3f} ms"
                f"  {entry['overhead_fraction'] * 100:+7.2f}%"
            )
        median = overhead["median_overhead_fraction"]
        print(f"median instrumentation overhead: {median * 100:+.2f}% "
              f"(tolerance {args.obs_tolerance * 100:.0f}%)")
        if not record["observability"]["ok"]:
            print(f"FAIL: median observability overhead {median * 100:.2f}% "
                  f"exceeds {args.obs_tolerance * 100:.0f}%")
            status = 1

    if args.profile_check:
        overhead = run_profile_overhead(PROFILES[args.profile]["repeats"])
        record["profiler"] = {
            **overhead,
            "tolerance": args.profile_tolerance,
            "ok": overhead["median_overhead_fraction"]
            <= args.profile_tolerance,
        }
        print(f"\n{'kernel'.ljust(width)}  stopped      sampling     overhead")
        for name, entry in overhead["kernels"].items():
            print(
                f"{name.ljust(width)}  {entry['stopped_s']:.6f}s   "
                f"{entry['running_s']:.6f}s   "
                f"{entry['overhead_fraction'] * 100:+.2f}%"
            )
        median = overhead["median_overhead_fraction"]
        print(f"median sampling-profiler overhead at {overhead['hz']:.0f}hz: "
              f"{median * 100:+.2f}% "
              f"(tolerance {args.profile_tolerance * 100:.0f}%)")
        if not record["profiler"]["ok"]:
            print(f"FAIL: median sampling-profiler overhead "
                  f"{median * 100:.2f}% exceeds "
                  f"{args.profile_tolerance * 100:.0f}%")
            status = 1

    if args.audit_check:
        overhead = run_audit_overhead(PROFILES[args.profile]["repeats"])
        record["audit"] = {
            **overhead,
            "tolerance": args.audit_tolerance,
            "ok": overhead["median_overhead_fraction"] <= args.audit_tolerance,
        }
        entry = overhead["kernels"]["session_serving"]
        counts = overhead["audit_counts"]
        print(f"\n{'session_serving'.ljust(width)}"
              f"  {entry['disabled_s'] * 1e3:9.3f} ms"
              f"  {entry['enabled_s'] * 1e3:9.3f} ms"
              f"  {entry['overhead_fraction'] * 100:+7.2f}%")
        print(f"  audits {counts.get('audits', 0)} "
              f"(coin-skipped {counts.get('skipped_coin', 0)}, "
              f"budget-skipped {counts.get('skipped_budget', 0)}) over "
              f"{counts.get('queries', 0)} served queries")
        median = overhead["median_overhead_fraction"]
        print(f"shadow-audit overhead: "
              f"{overhead['accounting_overhead_fraction'] * 100:.2f}% "
              f"accounting (per-query hooks) + "
              f"{overhead['audit_time_fraction'] * 100:.2f}% audit time "
              f"= {median * 100:.2f}% "
              f"(tolerance {args.audit_tolerance * 100:.0f}%)")
        if not record["audit"]["ok"]:
            print(f"FAIL: attributed shadow-audit overhead "
                  f"{median * 100:.2f}% "
                  f"exceeds {args.audit_tolerance * 100:.0f}%")
            status = 1

    repeats = PROFILES[args.profile]["repeats"]
    columnstore = run_columnstore(repeats)
    record["columnstore"] = columnstore
    scan = columnstore["serial_scan"]
    print(
        f"\ncolumn store ({columnstore['rows']} rows) serial scan: "
        f"plain {scan['plain_s'] * 1e3:.3f} ms, encoded {scan['encoded_s'] * 1e3:.3f} ms "
        f"(ratio {scan['serial_ratio']:.2f}x)"
    )

    if args.check is not None and scan["serial_ratio"] > MAX_SERIAL_SCAN_RATIO:
        print(f"FAIL: serial encoded scan is {scan['serial_ratio']:.2f}x plain "
              f"(allowed {MAX_SERIAL_SCAN_RATIO:.2f}x)")
        status = 1

    if args.output is None:
        args.output = Path(__file__).resolve().parent.parent / "BENCH_kernels.json"
    if str(args.output) != "-":
        args.output.write_text(json.dumps(record, indent=2) + "\n")
        print(f"wrote {args.output}")
    return status


if __name__ == "__main__":
    sys.exit(main())
