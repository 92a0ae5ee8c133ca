#!/usr/bin/env python3
"""What a fit and its fine-tunes compute, as SHA-1s, in one or more checkouts.

    python3 scripts/fingerprint.py TREE [TREE ...] --workload W [--input-seed N]

For each checkout, in a child process with that checkout's
``benchmarks/e2e/run.py::child_env()`` (BLAS threads pinned, its own
``src`` first on the path; it pins the hash seed too, but no fingerprint
depends on it): build the end-to-end benchmark's inputs
of workload ``W`` and print two rows for them, ``inputs.db`` (the SHA-1
over every table's name and row ids, each ``STR`` column's codes and
dictionary and each numeric column's bytes) and ``inputs.workload`` (the
SHA-1 of the train, test, revealed and aggregate queries' SQL text), so a
generator change that alters the data shows up by name and not only
through the weights. Then ``inputs.baseline.RAN`` / ``TOP`` / ``QUIK`` /
``CACH``: the SHA-1 of the keys each of those baselines selects on the
training workload at the benchmark's ``k`` and ``F``, seeded with the
workload's input seed (the e2e benchmark runs no baseline, so these rows
are the only check of their picks). Then fit, and fine-tune on each
revealed interest in turn.
After the fit and after every fine-tune it prints one SHA-1 per actor /
critic parameter (the array's bytes), one of ``model.history`` at full
precision (the wall-clock fields left out), one of the selected
approximation set's keys and one of the greedy-only set's
(``approximation_set(greedy=False)``), then ``saved.action_space``: the
SHA-1 of the action space as the saved ``arrays.npz`` stores it (each key
decoded to its table name and row id, the per-action key offsets and the
source codes), then ``loaded_selected_keys``: the
SHA-1 of the selected set's keys after a ``save_model`` -> ``load_model``
round trip, which must equal the stage's ``selected_keys`` (a checkout
where it does not counts as a differing row), and ``reloaded.coverages``:
the SHA-1 of every loaded coverage's tables, row ids, denominator and
weight (what ``load_model`` reads back or re-executes), and
``loaded.training_scores``: the SHA-1 of the loaded model's training
scores as ``float.hex`` (what a session's estimator opens on). Then it
opens an
``ASQPSession`` on the model and serves the benchmark's serve pool twice,
in pool order: ``served_cold`` and ``served_warm`` are the SHA-1 of every
answer of the first and the second pass (source, confidence as
``float.hex``, provenance keys and decoded columns in row order, or the
aggregate mapping). The second pass runs on the prepared plans and
estimates of the first, so the two must be equal; a checkout where they
are not counts as a differing row.

One row per fingerprint, one column per checkout; a row whose columns are
not all equal ends in ``DIFFERS`` and the exit status is 1. A change that
claims "same weights, same sets" (a kernel rewritten, an array carried in
another dtype) is checked by running this on the parent's checkout and the
change's, next to ``scripts/bench_pairs.py`` for the timings.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib.util
import os
import subprocess
import sys
import tempfile

#: IterationRecord fields that are timings, not results.
WALL_CLOCK = ("rollout_seconds", "update_seconds", "steps_per_second")


def sha1(data: bytes) -> str:
    return hashlib.sha1(data).hexdigest()


def fingerprints(model) -> list[tuple[str, str]]:
    """``(name, SHA-1)`` of everything a fit or fine-tune left in ``model``."""
    rows = []
    for side, network in (("actor", model.agent.actor), ("critic", model.agent.critic)):
        if network is None:
            continue
        for kind, arrays in (("w", network.net.weights), ("b", network.net.biases)):
            for i, array in enumerate(arrays):
                rows.append((f"{side}_{kind}{i}", sha1(array.tobytes())))
    history = [
        sorted(
            (name, value.hex() if isinstance(value, float) else value)
            for name, value in dataclasses.asdict(record).items()
            if name not in WALL_CLOCK
        )
        for record in model.history
    ]
    rows.append(("history", sha1(repr(history).encode())))
    rows.append(("selected_keys", sha1(repr(model.approximation_set().keys()).encode())))
    rows.append(
        ("greedy_keys", sha1(repr(model.approximation_set(greedy=False).keys()).encode()))
    )
    return rows


def coverage_digest(coverages) -> str:
    """SHA-1 of every coverage's tables, row-id matrix, denominator and weight."""
    digest = hashlib.sha1()
    for coverage in coverages:
        digest.update(repr((
            coverage.tables, coverage.ids.shape, coverage.denominator,
            float(coverage.weight).hex(),
        )).encode())
        digest.update(coverage.ids.tobytes())
    return digest.hexdigest()


def saved_action_space(directory: str) -> str:
    """SHA-1 of the action space in a saved model's ``arrays.npz``: each key
    as ``(table name, row id)``, then the key offsets and source codes."""
    import numpy as np

    with np.load(os.path.join(directory, "arrays.npz")) as arrays:
        names = arrays["table_names"].tolist()
        tables = [names[code] for code in arrays["action_tables"].tolist()]
        record = (
            list(zip(tables, arrays["action_rows"].tolist())),
            arrays["action_offsets"].tolist(),
            arrays["action_sources"].tolist(),
        )
    return sha1(repr(record).encode())


def database_digest(db) -> str:
    """SHA-1 of every table's name, row ids and stored columns."""
    digest = hashlib.sha1()
    for table in db:
        digest.update(repr(table.name).encode())
        digest.update(table.row_ids.tobytes())
        for name in table.schema.column_names:
            encoding = table.encoding(name)
            if encoding is None:
                digest.update(table.column(name).tobytes())
            else:
                digest.update(encoding.codes.tobytes())
                digest.update(repr(encoding.dictionary.tolist()).encode())
    return digest.hexdigest()


def workload_digest(inputs) -> str:
    """SHA-1 of the SQL text of every train / test / reveal / aggregate query."""
    workloads = [inputs.train, inputs.test]
    for reveal_train, reveal_test in inputs.reveals:
        workloads += [reveal_train, reveal_test]
    workloads.append(inputs.aggregates)
    text = [[query.to_sql() for query in workload.queries] for workload in workloads]
    return sha1(repr(text).encode())


def served(session, pool) -> str:
    """SHA-1 of the session's answer to every query of ``pool``, in order."""
    digest = hashlib.sha1()
    for query in pool:
        outcome = session.query(query)
        result = outcome.result
        if query.is_aggregate:
            answer = list(result.as_mapping().items())
        else:
            answer = [
                result.provenance_keys(),
                {ref: result.column(ref).tolist() for ref in result.columns},
            ]
        record = (outcome.used_approximation, outcome.estimate.confidence.hex(), answer)
        digest.update(repr(record).encode())
    return digest.hexdigest()


def child(workload: str, input_seed: int | None) -> None:
    """Runs inside one checkout: the imports below are that checkout's."""
    from dataclasses import replace

    import numpy as np

    from benchmarks.e2e.lifecycle import Lifecycle
    from benchmarks.e2e.specs import BY_NAME, FRAME_SIZE, MEMORY_BUDGET
    from repro.baselines import make_baseline
    from repro.bench import bench_asqp_config
    from repro.core import ASQPSession, ASQPTrainer, load_model, save_model

    spec = BY_NAME[workload]
    if input_seed is not None:
        spec = replace(spec, input_seed=input_seed)
    inputs = Lifecycle(spec, 0, None, "")._build_inputs()
    print(f"inputs.db {database_digest(inputs.db)}", flush=True)
    print(f"inputs.workload {workload_digest(inputs)}", flush=True)
    for name in ("RAN", "TOP", "QUIK", "CACH"):
        result = make_baseline(name).select(
            inputs.db, inputs.train, MEMORY_BUDGET, FRAME_SIZE,
            np.random.default_rng(spec.input_seed),
        )
        keys = result.approximation.keys()
        print(f"inputs.baseline.{name} {sha1(repr(keys).encode())}", flush=True)
    config = bench_asqp_config(
        MEMORY_BUDGET, FRAME_SIZE, seed=spec.input_seed, **spec.config
    )
    model = ASQPTrainer(inputs.db, inputs.train, config).train()
    # The serve loop's pool (benchmarks/e2e/lifecycle.py, Lifecycle._serve).
    pool = list(inputs.train.queries)
    for reveal_train, reveal_test in inputs.reveals:
        pool += [*reveal_train.queries, *reveal_test.queries]
    pool += inputs.aggregates.queries

    def report(stage: str) -> None:
        for name, digest in fingerprints(model):
            print(f"{stage}.{name} {digest}", flush=True)
        with tempfile.TemporaryDirectory() as directory:
            save_model(model, directory)
            print(f"{stage}.saved.action_space {saved_action_space(directory)}", flush=True)
            loaded = load_model(directory, inputs.db)
        keys = loaded.approximation_set().keys()
        print(f"{stage}.loaded_selected_keys {sha1(repr(keys).encode())}", flush=True)
        coverages = coverage_digest(loaded.coverages)
        print(f"{stage}.reloaded.coverages {coverages}", flush=True)
        scores = [float(value).hex() for value in loaded.training_scores()]
        print(f"{stage}.loaded.training_scores {sha1(repr(scores).encode())}", flush=True)
        session = ASQPSession(model, auto_fine_tune=False)
        for run in ("cold", "warm"):
            print(f"{stage}.served_{run} {served(session, pool)}", flush=True)

    report("fit")
    for i, (reveal_train, _) in enumerate(inputs.reveals, 1):
        model.fine_tune(list(reveal_train.queries))
        report(f"fine_tune_{i}")


def run_in(tree: str, workload: str, input_seed: int | None) -> dict[str, str]:
    """``{fingerprint name: SHA-1}`` of ``workload`` in checkout ``tree``."""
    spec = importlib.util.spec_from_file_location(
        "e2e_run", os.path.join(tree, "benchmarks", "e2e", "run.py")
    )
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    command = [sys.executable, os.path.abspath(__file__), "--child", "--workload", workload]
    if input_seed is not None:
        command += ["--input-seed", str(input_seed)]
    proc = subprocess.run(
        command, cwd=tree, env=run.child_env(), stdout=subprocess.PIPE,
        text=True, check=True,
    )
    return dict(line.split() for line in proc.stdout.splitlines())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="*", metavar="TREE")
    parser.add_argument("--workload", required=True, help="a BENCHMARK.json workload")
    parser.add_argument("--input-seed", type=int, default=None,
                        help="data and model seed (run.py's --input-seed)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(args.workload, args.input_seed)
        return 0
    if not args.trees:
        parser.error("at least one TREE")
    trees = [os.path.abspath(tree) for tree in args.trees]
    columns = [run_in(tree, args.workload, args.input_seed) for tree in trees]
    seed = "" if args.input_seed is None else f" --input-seed {args.input_seed}"
    print(f"{args.workload}{seed}: " + "  ".join(trees))
    differing = 0
    for name in dict.fromkeys(name for column in columns for name in column):
        digests = [column.get(name, "-") for column in columns]
        differs = len(set(digests)) > 1
        differing += differs
        print(f"{name:34s} " + "  ".join(digests) + ("  DIFFERS" if differs else ""))
    for tree, column in zip(trees, columns):
        for name, digest in column.items():
            if name.endswith(".served_cold") and column.get(
                name.replace("_cold", "_warm")
            ) != digest:
                differing += 1
                print(f"{name[:-len('_cold')]}: cold != warm in {tree}  DIFFERS")
            if name.endswith(".loaded_selected_keys") and column.get(
                name.replace("loaded_", "")
            ) != digest:
                differing += 1
                print(f"{name}: != selected_keys in {tree}  DIFFERS")
    print(f"differing rows: {differing}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
