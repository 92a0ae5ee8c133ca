"""Micro-benchmark of the vectorized execution kernels and CSR tracker.

Times each hot-path kernel — equi-join, stable distinct, group-by, the
CoverageIndex build and the CoverageTracker batch add/remove/probe
operations (on key id batches the fixture looks up once; the reference
takes the same batches as tuples) — on seeded synthetic data, against
the pre-vectorization reference implementations the tests keep
(``tests/test_kernels.py``: ``reference_*_positions`` and
``DictCoverageTracker``), plus the two halves of a
training iteration at figure scale: the lock-step rollout collector
(|A| = 800) against one actor at a time, and the PPO update on a
1448 × 828 batch against the interleaved actor-then-critic loop the
tests retain, with the peak that update holds; the 13
rollouts of Alg. 2 one ``approximation_set()`` makes; and the
per-distinct-value ``compute_table_stats`` — those two against the loops
the tests retain. Seven rows time a kernel against the form it replaced: a join-key
NDV count by ``sorted_unique`` against numpy 2.x's hash-set ``np.unique``;
a primary-key probe of the direct-address index, a whole primary-key
join at a serving-tail aggregate's shape, a foreign-key build against a
primary-key probe (the probe side indexed) and a many-to-many join (where
that switch is tried and rejected), each against the bucket layout and its
three-repeat probe; a served join through the executor's ``_hash_join``
with its keys' facts read from the tables, against derived from the rows;
and the column store's serial scan on dictionary codes against the same
predicate on decoded values.

One timer measures everything: :func:`_paired` runs the two sides of a
row in alternating same-round batches, so a row's ``speedup`` is the
median per-round ratio of reference to fast code, timed in the same
minute on the same host. The all-on arm times the same way what full
observability costs — spans, telemetry to a sink, the 100 hz
profiler and shadow auditing at the default rate — against all of it
off, on the four 10k kernels and on one served batch of a micro session.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernels.py                  # full profile
    PYTHONPATH=src python benchmarks/bench_kernels.py --profile fast \
        --check BENCH_kernels.json --output -                          # CI smoke

``--check`` applies :func:`check` against a committed record and exits
non-zero on a failure. BLAS runs on one thread, as in the end-to-end
benchmark (``benchmarks/e2e/run.py::PINNED_ENV``).

This file is not a pytest benchmark: it is a standalone script so CI can
run it without the pytest-benchmark plugin.
"""

from __future__ import annotations

import os

if __name__ == "__main__":  # before numpy loads its BLAS
    os.environ.update(
        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1"
    )

import argparse
import gc
import json
import math
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))  # for ``tests``

from repro import obs
from repro.core import (
    ActionSpace,
    ASQPConfig,
    GSLEnvironment,
    generate_approximation_set,
)
from repro.core.reward import CoverageIndex, CoverageTracker, QueryCoverage
from repro.db import (
    Column,
    ColumnType,
    Database,
    JoinCondition,
    Table,
    TableSchema,
    executor,
    kernels,
)
from repro.db.statistics import compute_table_stats
from repro.rl import (
    ActorNetwork,
    CriticNetwork,
    MultiActorCollector,
    PPOUpdater,
    RolloutBatch,
    RolloutBuffer,
    make_actor_specs,
)

PROFILES = {
    # rows are identical between profiles so the JSON is comparable;
    # "fast" only times fewer rounds for CI smoke runs. The all-on arm is
    # cheap and gated on an absolute bound, so it runs ten times the rounds.
    "full": {"rounds": 15},
    "fast": {"rounds": 7},
}

#: Each side of a round runs as many calls as fill about this long.
BATCH_SECONDS = 0.005

#: ``check`` fails a paired ratio that worsens by more than this factor
#: against the baseline: a speedup that falls, an all-on ratio that rises.
MAX_WORSENING = 1.5

#: ``check`` fails a kernel all-on overhead above this (ROADMAP's
#: combined bound for everything on).
MAX_KERNEL_OVERHEAD = 0.05

#: ``check`` fails an audit share of serving seconds above this; the
#: governor admits audits within 1% (``quality.MAX_OVERHEAD``).
MAX_AUDIT_SHARE = 0.02

N_ROWS = 10_000

#: Action-space size of the rl rows: the figure-scale fit's (|A| = 828).
N_ACTIONS = 800

#: Row count of the ``table_stats_str`` and ``serial_scan_120k`` tables.
COLUMNSTORE_ROWS = 120_000


def _paired(a, b, rounds: int, switch=None) -> tuple[float, float, float]:
    """Time ``a`` against ``b``: each side's median per-call seconds and
    the median per-round ratio ``a / b``.

    Each round runs a batch of ``a`` and a batch of ``b`` back to back,
    alternating which goes first, so the two sides of a ratio see the
    same machine state and slow drift cancels. A warm-up call of each
    side sizes its batch to fill :data:`BATCH_SECONDS`. The collector is
    paused while the rounds run. ``switch(side)``, when given, runs
    untimed before each batch of that side (0 for ``a``, 1 for ``b``).
    """
    sides = (a, b)
    calls = []
    for side, fn in enumerate(sides):
        if switch is not None:
            switch(side)
        start = time.perf_counter()
        fn()
        calls.append(max(1, math.ceil(BATCH_SECONDS / (time.perf_counter() - start))))
    per_call: tuple[list[float], list[float]] = ([], [])
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for round_ in range(rounds):
            for side in (0, 1) if round_ % 2 == 0 else (1, 0):
                if switch is not None:
                    switch(side)
                fn, n = sides[side], calls[side]
                start = time.perf_counter()
                for _ in range(n):
                    fn()
                per_call[side].append((time.perf_counter() - start) / n)
    finally:
        if gc_was_enabled:
            gc.enable()
    ratios = [x / y for x, y in zip(*per_call)]
    return (
        float(np.median(per_call[0])),
        float(np.median(per_call[1])),
        float(np.median(ratios)),
    )


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


def group_rows(arrays):
    """The executor's grouping of key columns: a group number a row
    (:func:`kernels.group_rows` over :func:`kernels.group_codes`)."""
    return kernels.group_rows(*kernels.group_codes(arrays))


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
    # Environment-step-sized add/remove batches (one action group each), of
    # distinct keys: a batch is one holder of each of its keys.
    batches = []
    for _ in range(16):
        picks = rng.integers(0, len(universe), size=500)
        added = list(dict.fromkeys(universe[int(p)] for p in picks))
        removed = added[: len(added) // 2]
        batches.append((added, removed))
    # BRT-sized candidate sets: whole approximation sets of ~k tuples,
    # probed from scratch (reset + add + score) per combination.
    candidates = []
    for _ in range(8):
        picks = rng.integers(0, len(universe), size=2_000)
        candidates.append(list(dict.fromkeys(universe[int(p)] for p in picks)))
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
    tables = sorted({table for c in coverages for table in c.tables})
    # The distinct requirement keys in (table, row id) order.
    universe = [
        (t, row)
        for t, table in enumerate(tables)
        for row in kernels.sorted_unique(np.concatenate(
            [c.ids[:, c.tables.index(table)] for c in coverages if table in c.tables]
        )).tolist()
    ]
    picks = np.concatenate(
        [rng.integers(0, len(universe), size=8) for _ in range(N_ACTIONS)]
    )
    key_tables, key_rows = np.asarray(universe, dtype=np.int64)[picks].T
    space = ActionSpace(
        tables, key_tables, key_rows, np.arange(0, 8 * N_ACTIONS + 1, 8),
        np.arange(N_ACTIONS) % len(coverages),
    )
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
    space = ActionSpace(
        ["t0", "t1", "t2"],
        np.tile(np.arange(6) % 3, 828),
        np.concatenate([rng.integers(0, 20_000, size=6) for _ in range(828)]),
        np.arange(0, 6 * 828 + 1, 6),
        np.arange(828) % 35,
    )
    return ActorNetwork(len(space), rng), space, ASQPConfig(memory_budget=1000, seed=0)


def _candidate_rollouts(generate, actor, space, config) -> None:
    """What one ``TrainedModel.approximation_set()`` rolls out: the greedy
    trajectory, then 12 sampled ones off one generator."""
    rng = np.random.default_rng(31)
    for greedy in [True] + [False] * 12:
        generate(actor, space, config, rng=rng, greedy=greedy)


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


def _scan_fixture():
    """The serial scan of a 120k-row table (a 200-value dict-string, a
    sorted int, a float): its predicate on decoded values and its
    code-space rewrite on the stored codes, each with its columns."""
    from repro.db import expressions as E
    from repro.db import sql

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
    # ~10% of the ts range plus a string inequality the rewrite turns into codes.
    predicate = sql(
        "SELECT city, ts, value FROM bench "
        "WHERE ts BETWEEN 4000000 AND 5000000 AND city != 'city_000'"
    ).predicate
    plain = {f"bench.{name}": table.column(name) for name in ("city", "ts", "value")}
    encoding = table.encoding("city")
    encoded = {**plain, "bench.city": encoding.codes}
    rewritten = E.rewrite_for_codes(
        predicate, {"bench.city": encoding.dictionary}, list(plain)
    )
    assert rewritten is not None, "bench predicate must be code-rewritable"
    return (predicate, plain), (rewritten, encoded)


def _serving_fixture():
    """A micro trained session (flights at scale 0.12, a two-iteration run
    on a quarter of the queries, its settings spelled out so the row keeps
    timing the session it was recorded on) and one served batch: its first
    four workload queries."""
    from repro.core import ASQPSession, ASQPTrainer
    from repro.datasets import load_flights

    bundle = load_flights(scale=0.12, n_queries=6, n_aggregate_queries=2)
    config = ASQPConfig(
        memory_budget=120, frame_size=20, n_query_representatives=12,
        training_fraction=0.25, action_space_target=600, exact_row_share=0.7,
        learning_rate=1e-3, n_iterations=2, query_batch_size=8,
        early_stopping_patience=3, n_candidate_rollouts=8, seed=0,
    )
    model = ASQPTrainer(bundle.db, bundle.workload, config).train()
    session = ASQPSession(model, auto_fine_tune=False)
    queries = list(bundle.workload)[:4]

    def serve() -> None:
        for query in queries:
            session.query(query)

    return serve


def _served_join_fixture(rng: np.random.Generator):
    """``(conditions, (leaf, table), (leaf, table))`` of one served join:
    the two inputs with their join keys' facts, then the same inputs
    without them."""
    span, n_keys, n_refs, n_leaf = 3_000, 300, 300, 20
    ids = np.sort(rng.choice(span, size=n_keys, replace=False))
    keys = Table(
        TableSchema("p", [Column("id", ColumnType.INT), Column("v", ColumnType.INT)]),
        {"id": ids, "v": rng.integers(0, 100, size=n_keys)},
    )
    refs = Table(
        TableSchema("f", [Column("p_id", ColumnType.INT), Column("w", ColumnType.INT)]),
        {"p_id": rng.choice(ids, size=n_refs), "w": rng.integers(0, 100, size=n_refs)},
    )
    db = Database([keys, refs])
    leaf = executor._base_context(db, "p").take(
        np.sort(rng.choice(n_keys, size=n_leaf, replace=False))
    )
    table = executor._base_context(db, "f")
    leaf.facts = {"p.id": keys.key_facts("id")}
    table.facts = {"f.p_id": refs.key_facts("p_id")}
    bare = tuple(replace(side, facts={}) for side in (leaf, table))
    return (JoinCondition("p.id", "f.p_id"),), (leaf, table), bare


def run_benchmarks(rounds: int) -> dict:
    """Every kernel row, each paired against its retained reference."""
    from tests.test_kernels import (
        DictCoverageTracker,
        reference_distinct_positions,
        reference_group_by_positions,
        reference_join_positions,
    )
    from tests.test_reward import intern

    record: dict = {"rows": N_ROWS, "kernels": {}}

    def measure(name: str, reference, vectorized, units: int) -> None:
        ref_s, vec_s, speedup = _paired(reference, vectorized, rounds)
        record["kernels"][name] = {
            "reference_s": ref_s,
            "vectorized_s": vec_s,
            "speedup": speedup,
            "units_per_s": units / vec_s,
        }

    rng = np.random.default_rng(7)
    build, probe = _join_workload(rng)
    measure(
        "join_10k",
        lambda: reference_join_positions(build, probe),
        lambda: kernels.join_positions(build, probe),
        units=len(build[0]) + len(probe[0]),
    )

    distinct_arrays = _distinct_workload(rng)
    measure(
        "distinct_10k",
        lambda: reference_distinct_positions(distinct_arrays),
        lambda: kernels.distinct_positions(distinct_arrays),
        units=len(distinct_arrays[0]),
    )

    group_arrays = _group_workload(rng)
    measure(
        "group_by_10k",
        lambda: reference_group_by_positions(group_arrays),
        lambda: group_rows(group_arrays),
        units=len(group_arrays[0]),
    )

    # Approximation-set sizes, the regime most served queries run in
    # (k = 1000 tuples a set): 100 and 200 rows of ids over a 60 000-wide
    # span. Their own generator, so the rows below keep their inputs.
    sparse_rng = np.random.default_rng(17)
    build_ids, probe_ids = (sparse_rng.integers(0, 60_000, size=n) for n in (100, 200))
    all_ids = [np.concatenate([build_ids, probe_ids])]
    for name, reference, vectorized, args in (
        ("join_300_sparse", reference_join_positions,
         kernels.join_positions, ([build_ids], [probe_ids])),
        ("distinct_300_sparse", reference_distinct_positions,
         kernels.distinct_positions, (all_ids,)),
        ("group_by_300_sparse", reference_group_by_positions,
         group_rows, (all_ids,)),
    ):
        measure(
            name, lambda: reference(*args), lambda: vectorized(*args),
            units=len(all_ids[0]),
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
        units=len(ndv_keys),
    )

    # A primary-key probe: 50 000 unique build keys, 100 000 probe rows
    # (about two thirds hit), the direct-address index against the bucket
    # layout's three-repeat probe, each index prebuilt.
    from tests.test_kernels import (
        bucket_join_index,
        bucket_join_positions,
        three_repeat_probe,
    )

    pk_codes = probe_rng.permutation(50_000)
    pk_probe = probe_rng.integers(0, 75_000, size=100_000)
    pk_index = kernels.build_join_index(pk_codes, 75_000)
    pk_buckets = bucket_join_index(pk_codes, 75_000)
    measure(
        "join_pk_probe",
        lambda: three_repeat_probe(pk_probe, *pk_buckets),
        lambda: kernels.probe_factorized(pk_probe, pk_index),
        units=len(pk_probe),
    )

    # The whole join of a serving-tail aggregate, 43 000 publications to
    # their 1 920 venues by the venues' key (every probe row hits), against
    # the bucket layout and its three-repeat probe. Its own generator.
    tail_rng = np.random.default_rng(43)
    venue_ids = tail_rng.permutation(1_920)
    venue_refs = tail_rng.integers(0, 1_920, size=43_000)
    measure(
        "join_pk_1900x43k",
        lambda: bucket_join_positions([venue_ids], [venue_refs]),
        lambda: kernels.join_positions([venue_ids], [venue_refs]),
        units=len(venue_ids) + len(venue_refs),
    )

    # A full-database join of the IMDB fit's preprocess (title ⋈ cast_info
    # ⋈ person): 16 721 cast rows whose person keys repeat against 30 734
    # unique person keys, and a many-to-many join of one int key, 4 000 ×
    # 9 000 rows over 2 000 values. Both against the bucket layout and its
    # three-repeat probe. Their own generator.
    fk_rng = np.random.default_rng(20)
    person_ids = np.sort(fk_rng.choice(60_000, size=30_734, replace=False))
    cast_refs = fk_rng.choice(person_ids, size=16_721)
    many_build = fk_rng.integers(0, 2_000, size=4_000)
    many_probe = fk_rng.integers(0, 2_000, size=9_000)
    for name, build_keys, probe_keys in (
        ("join_fk_build_pk_probe", [cast_refs], [person_ids]),
        ("join_many_to_many_int", [many_build], [many_probe]),
    ):
        measure(
            name,
            lambda: bucket_join_positions(build_keys, probe_keys),
            lambda: kernels.join_positions(build_keys, probe_keys),
            units=len(build_keys[0]) + len(probe_keys[0]),
        )

    # A served join through `_hash_join`, at an approximation set's shape:
    # a 20-row filtered leaf of a unique key against a 300-row table's
    # foreign key over a 3 000-id span, the keys' facts read from the
    # tables against derived from the rows. Its own generator.
    served_on, with_facts, without_facts = _served_join_fixture(np.random.default_rng(29))
    measure(
        "join_facts_20x300",
        lambda: executor._hash_join(*without_facts, served_on, None),
        lambda: executor._hash_join(*with_facts, served_on, None),
        units=sum(len(side) for side in with_facts),
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
    # The CSR tracker takes key ids, looked up here once, as an environment
    # looks its action space up when it is built and BRT its pool.
    id_batches = [(intern(index, a), intern(index, r)) for a, r in batches]
    id_candidates = [intern(index, c) for c in candidates]
    n_batch_keys = sum(len(a) + len(r) for a, r in batches)
    measure(
        "coverage_batch",
        lambda: _run_coverage_batches(legacy, batches),
        lambda: _run_coverage_batches(csr, id_batches),
        units=n_batch_keys,
    )
    measure(
        "coverage_probe",
        lambda: _run_coverage_candidate_probes(legacy, candidates),
        lambda: _run_coverage_candidate_probes(csr, id_candidates),
        units=sum(len(c) for c in candidates),
    )
    csr.reset()
    legacy.reset()
    for (added, _), (added_ids, _) in zip(batches[:4], id_batches):
        legacy.add_keys(added)
        csr.add_keys(added_ids)
    measure(
        "coverage_score_with_keys",
        lambda: _run_coverage_probes(legacy, batches),
        lambda: _run_coverage_probes(csr, id_batches),
        units=sum(len(a) for a, _ in batches),
    )

    collector = _rollout_fixture(coverages, rng)
    buffer = RolloutBuffer()
    collector.collect(1, buffer)
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

    # Per-distinct-value statistics against the per-row loop the tests
    # keep as a reference.
    from tests.test_statistics_sampling_cache import reference_table_stats

    words = _str_table()
    measure(
        "table_stats_str",
        lambda: reference_table_stats(words),
        lambda: compute_table_stats(words),
        units=len(words),
    )
    (predicate, plain), (rewritten, encoded) = _scan_fixture()
    measure(
        "serial_scan_120k",
        lambda: np.flatnonzero(predicate.evaluate(plain)),
        lambda: np.flatnonzero(rewritten.evaluate(encoded)),
        units=COLUMNSTORE_ROWS,
    )
    return record


def run_all_on(rounds: int) -> dict:
    """What everything on costs against everything off, as paired ratios.

    The on side runs inside ``obs.run(…, profile=True)`` with telemetry
    going to a temporary sink and the audit governor at
    ``quality.DEFAULT_AUDIT_RATE``: spans, telemetry rows, the 100 hz
    sampling profiler and shadow auditing. The off side
    has observability disabled, the profiler stopped and the governor at
    rate 0. Two cases: the four 10k kernels, and one served batch of a
    micro session. The serving case also reports the governor's own
    audit seconds over its serving seconds, the first always-admitted
    audit excluded.
    """
    quality = obs.quality
    rng = np.random.default_rng(7)
    build, probe = _join_workload(rng)
    distinct_arrays = _distinct_workload(rng)
    group_arrays = _group_workload(rng)

    def kernels_10k() -> None:
        kernels.join_positions(build, probe)
        kernels.distinct_positions(distinct_arrays)
        group_rows(group_arrays)
        kernels.factorize_keys(distinct_arrays)

    serve = _serving_fixture()
    governor = quality.GOVERNOR
    result: dict = {}
    with tempfile.TemporaryDirectory() as directory, obs.run(
        directory, profile=True, audit_rate=quality.DEFAULT_AUDIT_RATE
    ):
        running = obs.profiler.active()

        def switch(side: int) -> None:
            if side == 0:
                obs.enable()
                governor.rate = quality.DEFAULT_AUDIT_RATE
                running.start()
            else:
                running.stop()
                governor.rate = 0.0
                obs.disable()

        while governor.audit_seconds == 0.0:  # the always-admitted first audit
            serve()  # three of its four answers are approximate: the coin comes up
        audit_s, serving_s = governor.audit_seconds, governor.serving_seconds
        for case, fn in (("kernels_10k", kernels_10k), ("serving", serve)):
            on_s, off_s, ratio = _paired(fn, fn, rounds, switch)
            result[case] = {"off_s": off_s, "on_s": on_s, "ratio": ratio}
        result["serving"]["audit_share"] = (
            (governor.audit_seconds - audit_s)
            / (governor.serving_seconds - serving_s)
        )
    governor.reset(0.0)
    return result


def check(record: dict, baseline: dict) -> tuple[list[str], list[str]]:
    """``(failures, notes)`` of ``record`` against ``baseline``.

    Fails a paired ratio that worsened by more than
    :data:`MAX_WORSENING` (a kernel speedup that fell, an all-on ratio
    that rose), a kernel all-on overhead above
    :data:`MAX_KERNEL_OVERHEAD` and an audit share above
    :data:`MAX_AUDIT_SHARE`. A row the baseline lacks is a note.
    """
    failures: list[str] = []
    notes: list[str] = []
    sections = (
        ("kernels", "speedup", -1),  # a speedup may not fall
        ("all_on", "ratio", +1),  # an all-on ratio may not rise
    )
    for section, key, sign in sections:
        for name, entry in record[section].items():
            base = baseline.get(section, {}).get(name)
            if base is None:
                notes.append(f"{name}: not in the baseline, not checked")
                continue
            worsening = (entry[key] / base[key]) ** sign
            if worsening > MAX_WORSENING:
                failures.append(
                    f"{name}: {key} {entry[key]:.3f} vs baseline {base[key]:.3f} "
                    f"({worsening:.2f}x worse > {MAX_WORSENING}x)"
                )
    overhead = record["all_on"]["kernels_10k"]["ratio"] - 1.0
    if overhead > MAX_KERNEL_OVERHEAD:
        failures.append(
            f"kernels_10k: all-on overhead {overhead:+.2%} "
            f"> {MAX_KERNEL_OVERHEAD:.0%}"
        )
    share = record["all_on"]["serving"]["audit_share"]
    if share > MAX_AUDIT_SHARE:
        failures.append(
            f"serving: audit share {share:.2%} > {MAX_AUDIT_SHARE:.0%}"
        )
    return failures, notes


def _provenance(profile: str) -> dict:
    described = subprocess.run(
        ["git", "describe", "--always", "--dirty"],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    return {
        "git_sha": described.stdout.strip() or "unknown",
        "nproc": os.cpu_count(),
        "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "profile": profile,
        "rounds": PROFILES[profile]["rounds"],
        "blas_threads": 1,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--profile", choices=sorted(PROFILES), default="full")
    parser.add_argument("--output", type=Path, default=None,
                        help="write the JSON record here (default: repo-root "
                             "BENCH_kernels.json; '-' to skip)")
    parser.add_argument("--check", type=Path, default=None,
                        help="baseline BENCH_kernels.json to compare against")
    args = parser.parse_args(argv)

    rounds = PROFILES[args.profile]["rounds"]
    record = {"provenance": _provenance(args.profile), **run_benchmarks(rounds)}
    record["all_on"] = run_all_on(10 * rounds)
    baseline = json.loads(args.check.read_text()) if args.check else {}

    width = max(len(name) for name in record["kernels"])
    print(f"{'kernel'.ljust(width)}  reference    vectorized   speedup  committed")
    for name, entry in record["kernels"].items():
        committed = baseline.get("kernels", {}).get(name, {}).get("speedup")
        print(
            f"{name.ljust(width)}  {entry['reference_s'] * 1e3:9.3f} ms"
            f"  {entry['vectorized_s'] * 1e3:9.3f} ms"
            f"  {entry['speedup']:6.2f}x"
            + (f"  {committed:8.2f}x" if committed else "")
        )
    peak = record["ppo_update_peak"]
    print(
        f"{'ppo_update_peak'.ljust(width)}  {'-':>12}  {peak['peak']:9.3f} {peak['unit']} "
        f"at {peak['shape'][0]} x {peak['shape'][1]} (the batch itself: {peak['batch']:.3f})"
    )
    print(f"\n{'all on'.ljust(width)}  off          on           ratio")
    for name, entry in record["all_on"].items():
        print(
            f"{name.ljust(width)}  {entry['off_s'] * 1e3:9.3f} ms"
            f"  {entry['on_s'] * 1e3:9.3f} ms  {entry['ratio']:6.3f}x"
        )
    print(f"serving audit share: {record['all_on']['serving']['audit_share']:.2%}")

    status = 0
    if args.check is not None:
        failures, notes = check(record, baseline)
        for note in notes:
            print(f"NOTE: {note}")
        for failure in failures:
            print(f"FAIL: {failure}")
        status = 1 if failures else 0

    if args.output is None:
        args.output = ROOT / "BENCH_kernels.json"
    if str(args.output) != "-":
        args.output.write_text(json.dumps(record, indent=2) + "\n")
        print(f"wrote {args.output}")
    return status


if __name__ == "__main__":
    sys.exit(main())
