"""Save / load trained ASQP-RL models.

The offline training phase is the expensive part of the system (the paper
budgets an hour for it), so a trained model must outlive the process, and
every session pays for opening it again. A model directory of format 5
(:data:`FORMAT_VERSION`) contains:

* ``config.json`` — the format version and the
  :class:`~repro.core.config.ASQPConfig` fields;
* ``queries.json`` — representatives and training queries as SQL text
  (round-tripped through :func:`repro.db.sql.sql`, each distinct text
  parsed once on load) plus weights;
* ``arrays.npz`` — network weights; the representative / training query
  embeddings (the estimator's inputs); the action space as it is held
  (:class:`~repro.core.action_space.ActionSpace`): table codes into
  ``table_names``, row ids, per-action key offsets and source codes; and
  the requirement rows of every coverage that was not sampled, as one
  concatenated row-id array with each coverage's table codes and shape.
  Stored uncompressed;
* ``history.json`` — training diagnostics and metadata;
* ``selected.json`` — the approximation set the model selected (Alg. 2),
  as sorted row ids per table.

Each JSON file is one ``json.dumps``: CPython encodes with its C encoder
only there, not in an indented dump or one streamed to a file.

A coverage is stored exactly when it holds all of its query's distinct
result rows, and is then rebuilt from the stored ids as preprocessing
built it. A representative with more than ``MAX_REQUIREMENT_ROWS`` result
rows kept only a sample (:attr:`QueryCoverage.sampled`); those alone are
executed against the attached database again and re-sampled from
``default_rng(config.seed)`` in representative order, as every format
before this one did for all of them. The re-drawn sample differs from the
fit's, which can change which candidate roll-out scores best, so the
loaded model serves the stored ``selected.json`` (checked against the
attached database) and Alg. 2 does not run again. The database
statistics and the query embedder are rebuilt from the attached database.
The actor and the critic are built from their stored arrays, of the layer
sizes the action space and :data:`~repro.rl.policy.HIDDEN` give; no
initial weights are drawn for them to overwrite. A session opened on the
loaded model reads the selected set and scores it with
:meth:`~repro.core.trainer.TrainedModel.training_scores`, which builds no
:class:`~repro.core.reward.CoverageIndex`: the first fine-tune builds
the one it trains on.
No pickle anywhere. Nothing is compressed: most of the bytes are float64
weights, which zlib shrinks by under 5% for most of the time a save takes
(``np.load`` still reads an ``arrays.npz`` written with
``savez_compressed``).

A model directory is outside input: a file of it (or an ``arrays.npz``
member) that is missing, cut short or of the wrong shape, a row id of an
action, a stored coverage or the selected set that the attached database
does not hold, a network layer missing or of other sizes (the critic's
too, when the config uses one), or a directory of an older format
version makes :func:`load_model` raise one :class:`ModelError` naming the
file. The row ids are checked with one ``np.isin`` per table.
"""

from __future__ import annotations

import dataclasses
import json
import os
import zipfile
from contextlib import contextmanager
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from ..db.database import Database
from ..db.sql import sql
from ..db.statistics import compute_database_stats
from ..embedding.query_embed import QueryEmbedder
from ..rl.nn import MLP
from ..rl.policy import HIDDEN, ActorNetwork, CriticNetwork
from .action_space import ActionSpace
from .agent import ASQPAgent
from .approximation import ApproximationSet
from .config import ASQPConfig
from .preprocess import PreprocessResult, build_coverage, coverage_from_ids
from .trainer import IterationRecord, TrainedModel

FORMAT_VERSION = 5

#: A stored coverage's provenance: its tables and its row-id matrix.
_Provenance = tuple[tuple[str, ...], np.ndarray]


class ModelError(ValueError):
    """A model directory that cannot be loaded; the message is user-facing."""


@contextmanager
def _reading(directory: str, name: str) -> Iterator[str]:
    """Path of one model file; the block reads and interprets that file.

    Whatever a missing, truncated or wrong-shaped file raises in the
    block — from ``open``, the JSON / npz decoder, a key or field lookup,
    a constructor fed the wrong fields — leaves as a :class:`ModelError`.
    """
    path = os.path.join(directory, name)
    try:
        yield path
    except ModelError:
        raise
    except (
        OSError, EOFError, zipfile.BadZipFile,
        ValueError, LookupError, TypeError, AttributeError,
    ) as error:
        raise ModelError(
            f"unreadable model file {path}: {type(error).__name__}: {error} "
            "— save the model again with `repro train --out`"
        ) from None


def _require_rows(
    db: Database, named: Sequence[tuple[str, str, Iterable[tuple[str, np.ndarray]]]]
) -> None:
    """Raise a :class:`ModelError` unless ``db`` holds every row id that the
    ``(path, verb, [(table, ids), ...])`` entries name, naming the first
    entry's file that names one it lacks: ``Database.subset`` would silently
    drop an id a table lacks. One ``np.isin`` per table checks all entries."""
    by_table: dict[str, list[tuple[int, np.ndarray]]] = {}
    for position, (_, _, rows) in enumerate(named):
        for table, ids in rows:
            by_table.setdefault(table, []).append((position, ids))
    failures = []
    for table, parts in by_table.items():
        owners = [position for position, _ in parts]
        if db.has_table(table):
            ids = [ids for _, ids in parts]
            held = np.isin(np.concatenate(ids), db.table(table).row_ids)
            owners = np.repeat(owners, [len(part) for part in ids])[~held].tolist()
        if owners:
            failures.append((min(owners), table))
    if failures:
        position, table = min(failures)
        path, verb, _ = named[position]
        raise ModelError(
            f"model file {path} {verb} rows of table {table!r} that the "
            f"attached database {db.name!r} does not hold — load the model "
            "with the database it was trained on"
        )


def _write_json(directory: str, name: str, payload: object) -> None:
    """One C-encoded ``json.dumps`` (an ``indent`` or a ``json.dump`` to the
    handle would run the pure-Python encoder, one write per token)."""
    with open(os.path.join(directory, name), "w") as handle:
        handle.write(json.dumps(payload))


def _member(
    arrays: Mapping[str, np.ndarray], name: str, kinds: str, ndim: int = 1
) -> np.ndarray:
    """Member ``name`` of ``arrays``, which must have ``ndim`` dimensions
    and a dtype of one of the numpy ``kinds``."""
    array = arrays[name]
    if array.ndim != ndim or array.dtype.kind not in kinds:
        raise ValueError(f"{name!r} of shape {array.shape} and dtype {array.dtype}")
    return array


def _network(
    arrays: Mapping[str, np.ndarray], side: str, sizes: Sequence[int]
) -> MLP:
    """The stored ``side`` network (``actor`` / ``critic``), whose layers
    must have these ``sizes``, built from its arrays: no weights are drawn."""
    weights, biases = [], []
    for i, shape in enumerate(zip(sizes, sizes[1:])):
        weights.append(_member(arrays, f"{side}_w{i}", "f", ndim=2))
        biases.append(_member(arrays, f"{side}_b{i}", "f"))
        if weights[-1].shape != shape or biases[-1].shape != shape[1:]:
            raise ValueError(
                f"{side} layer {i} of shapes {weights[-1].shape} and "
                f"{biases[-1].shape}, expected {shape}"
            )
    return MLP.from_arrays(weights, biases)


def _named(names: Sequence[str], codes: np.ndarray) -> list[str]:
    """The table name of each of ``codes``."""
    if len(codes) and not 0 <= codes.min() <= codes.max() < len(names):
        raise ValueError(f"table codes outside [0, {len(names)})")
    return np.asarray(names, dtype=object)[codes].tolist()


def _key_arrays(model: TrainedModel) -> dict[str, np.ndarray]:
    """The action space and every coverage that was not sampled, as a few
    concatenated arrays: table codes into ``table_names``, row ids, and
    each action's key offsets / each coverage's ``ids`` shape."""
    space = model.action_space
    stored = [c for c in model.coverages if not c.sampled]
    names = sorted(set(space.tables).union(*(c.tables for c in stored)))
    code = {name: i for i, name in enumerate(names)}.__getitem__
    return {
        "table_names": np.asarray(names, dtype=str),
        "action_tables": space.table_codes(names),
        "action_rows": space.key_rows,
        "action_offsets": space.offsets,
        "action_sources": space.sources,
        "coverage_sampled": np.asarray(
            [c.sampled for c in model.coverages], dtype=bool
        ),
        "coverage_tables": np.asarray(
            [code(t) for c in stored for t in c.tables], dtype=np.int64
        ),
        "coverage_shapes": np.asarray(
            [c.ids.shape for c in stored], dtype=np.int64
        ).reshape(-1, 2),
        "coverage_ids": np.concatenate(
            [c.ids.ravel() for c in stored] + [np.zeros(0, dtype=np.int64)]
        ),
    }


def save_model(model: TrainedModel, directory: str) -> None:
    """Persist a trained model to ``directory`` (created if needed).

    Writes the model's selected approximation set too, selecting it first
    if no default :meth:`TrainedModel.approximation_set` call has yet.
    """
    os.makedirs(directory, exist_ok=True)
    config_dict = dataclasses.asdict(model.config)
    _write_json(
        directory, "config.json", {"version": FORMAT_VERSION, "config": config_dict}
    )

    prep = model.preprocessed
    _write_json(directory, "queries.json", {
        "representatives": [q.to_sql() for q in prep.representatives],
        "representative_weights": [float(c.weight) for c in model.coverages],
        "training_queries": [q.to_sql() for q in prep.training_queries],
    })

    arrays = _key_arrays(model)
    arrays.update({
        "representative_embeddings": prep.representative_embeddings,
        "training_embeddings": prep.training_embeddings,
    })
    for i, weight in enumerate(model.agent.actor.net.weights):
        arrays[f"actor_w{i}"] = weight
    for i, bias in enumerate(model.agent.actor.net.biases):
        arrays[f"actor_b{i}"] = bias
    if model.agent.critic is not None:
        for i, weight in enumerate(model.agent.critic.net.weights):
            arrays[f"critic_w{i}"] = weight
        for i, bias in enumerate(model.agent.critic.net.biases):
            arrays[f"critic_b{i}"] = bias
    np.savez(os.path.join(directory, "arrays.npz"), **arrays)

    _write_json(directory, "history.json", {
        "records": [dataclasses.asdict(record) for record in model.history],
        "setup_seconds": model.setup_seconds,
        "fine_tune_count": model.fine_tune_count,
    })

    selected = model.approximation_set()
    _write_json(
        directory, "selected.json",
        {t: sorted(ids) for t, ids in sorted(selected.rows.items())},
    )


def _read_coverages(
    arrays: Mapping[str, np.ndarray], names: Sequence[str], n_representatives: int
) -> tuple[list[bool], list[_Provenance], list[tuple[str, np.ndarray]]]:
    """Whether each representative's coverage was sampled, the ``(tables,
    ids)`` of every one that was not, and their row ids per table."""
    sampled = _member(arrays, "coverage_sampled", "b").tolist()
    shapes = _member(arrays, "coverage_shapes", "i", ndim=2).tolist()
    tables = _named(names, _member(arrays, "coverage_tables", "i"))
    ids = _member(arrays, "coverage_ids", "i")
    if (
        len(sampled) != n_representatives
        or len(shapes) != sampled.count(False)
        or any(len(shape) != 2 or min(shape) < 0 for shape in shapes)
        or len(tables) != sum(cols for _, cols in shapes)
        or len(ids) != sum(rows * cols for rows, cols in shapes)
    ):
        raise ValueError("coverage arrays of inconsistent lengths")
    stored: list[_Provenance] = []
    rows_by_table: list[tuple[str, np.ndarray]] = []
    table_start = id_start = 0
    for rows, cols in shapes:
        coverage_tables = tuple(tables[table_start:table_start + cols])
        coverage_ids = ids[id_start:id_start + rows * cols].reshape(rows, cols)
        stored.append((coverage_tables, coverage_ids))
        rows_by_table += zip(coverage_tables, coverage_ids.T)
        table_start += cols
        id_start += rows * cols
    return sampled, stored, rows_by_table


def load_model(directory: str, db: Database) -> TrainedModel:
    """Load a model saved by :func:`save_model`, attached to ``db``.

    ``db`` must be the database the model was trained on (same content):
    the stored actions, coverages and selected set must name only its rows,
    and the representatives whose coverage was sampled are executed against
    it again. Raises :class:`ModelError` for a damaged directory.
    """
    with _reading(directory, "config.json") as path:
        with open(path) as handle:
            payload = json.load(handle)
        if payload.get("version") != FORMAT_VERSION:
            raise ModelError(
                f"unsupported model format version "
                f"{payload.get('version')!r} in {path}"
            )
        config = ASQPConfig(**payload["config"])

    with _reading(directory, "queries.json") as path:
        with open(path) as handle:
            queries = json.load(handle)
        texts = queries["representatives"], queries["training_queries"]
        parsed = {text: sql(text) for text in dict.fromkeys(texts[0] + texts[1])}
        representatives, training_queries = ([parsed[t] for t in ts] for ts in texts)
        weights = np.asarray(queries["representative_weights"], dtype=np.float64)
        if weights.shape != (len(representatives),):
            raise ValueError(
                f"{len(weights)} weights for {len(representatives)} queries"
            )

    with _reading(directory, "arrays.npz") as arrays_path, np.load(
        arrays_path
    ) as arrays:
        names = _member(arrays, "table_names", "U").tolist()
        action_space = ActionSpace(names, *(
            _member(arrays, f"action_{part}", "i")
            for part in ("tables", "rows", "offsets", "sources")
        ))
        action_rows = [
            (names[code], action_space.key_rows[action_space.key_tables == code])
            for code in np.flatnonzero(np.bincount(action_space.key_tables))
        ]
        sampled, stored, coverage_rows = _read_coverages(
            arrays, names, len(representatives)
        )
        n_actions = len(action_space)
        actor = ActorNetwork(
            n_actions, net=_network(arrays, "actor", [n_actions, *HIDDEN, n_actions])
        )
        critic = (
            CriticNetwork(
                n_actions, net=_network(arrays, "critic", [n_actions, *HIDDEN, 1])
            )
            if config.use_actor_critic
            else None
        )
        agent = ASQPAgent(n_actions, config, networks=(actor, critic))
        representative_embeddings = arrays["representative_embeddings"]
        training_embeddings = arrays["training_embeddings"]

    with _reading(directory, "history.json") as path:
        with open(path) as handle:
            history = json.load(handle)
        records = [IterationRecord(**record) for record in history["records"]]
        setup_seconds = history["setup_seconds"]
        fine_tune_count = history["fine_tune_count"]

    with _reading(directory, "selected.json") as selected_path:
        with open(selected_path) as handle:
            mapping = json.load(handle)
        selected = ApproximationSet.from_mapping(mapping)
        selected_rows = [
            (table, np.asarray(ids, dtype=np.int64)) for table, ids in mapping.items()
        ]

    _require_rows(db, [
        (arrays_path, "names", action_rows + coverage_rows),
        (selected_path, "selects", selected_rows),
    ])

    # Only a sampled coverage is not stored: its representative is executed
    # again and re-sampled, from one generator in representative order.
    rng = np.random.default_rng(config.seed)
    stored_coverages = iter(stored)
    coverages = [
        build_coverage(db, query, float(weight), config.frame_size, rng)
        if was_sampled
        else coverage_from_ids(
            query, float(weight), config.frame_size, *next(stored_coverages), rng
        )
        for query, weight, was_sampled in zip(representatives, weights, sampled)
    ]

    stats = compute_database_stats(db)
    prep = PreprocessResult(
        representatives=representatives,
        representative_embeddings=representative_embeddings,
        training_embeddings=training_embeddings,
        coverages=list(coverages),
        action_space=action_space,
        training_queries=training_queries,
        query_embedder=QueryEmbedder(stats=stats),
        stats=stats,
    )
    return TrainedModel(
        db=db,
        config=config,
        agent=agent,
        preprocessed=prep,
        coverages=list(coverages),
        action_space=action_space,
        history=records,
        setup_seconds=setup_seconds,
        fine_tune_count=fine_tune_count,
        selected=selected,
    )
