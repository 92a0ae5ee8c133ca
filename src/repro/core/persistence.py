"""Save / load trained ASQP-RL models.

The offline training phase is the expensive part of the system (the paper
budgets an hour for it), so a trained model must outlive the process. A
model directory of format 4 (:data:`FORMAT_VERSION`) contains:

* ``config.json`` — the format version and the
  :class:`~repro.core.config.ASQPConfig` fields;
* ``queries.json`` — representatives and training queries as SQL text
  (round-tripped through :func:`repro.db.sql.sql`) plus weights;
* ``actions.json`` — the action space's tuple keys and source codes;
* ``arrays.npz`` — network weights and the representative / training
  query embeddings (the estimator's inputs), stored uncompressed;
* ``history.json`` — training diagnostics and metadata;
* ``selected.json`` — the approximation set the model selected (Alg. 2),
  as sorted row ids per table.

Coverage structures are *rebuilt* on load by re-executing the
representatives against the database (exactly what preprocessing did), so
they are not stored at all and the loaded model is guaranteed consistent
with the database it is attached to. The served set is *not* derived from
the rebuilt coverages: a representative with more than
``MAX_REQUIREMENT_ROWS`` result rows has its requirement rows re-sampled,
which can change which candidate roll-out scores best, so the loaded model
serves the stored ``selected.json`` (checked against the attached
database) and Alg. 2 does not run again. No pickle anywhere. Nothing is
compressed: the bytes are float64 weights, which zlib shrinks by under 5%
for most of the time a save takes (``np.load`` still reads an ``arrays.npz``
that older code wrote with ``savez_compressed``).

A model directory is outside input: a file of it that is missing, cut
short or of the wrong shape, an action key or a selected key the attached
database does not hold, or a directory of an older format version makes
:func:`load_model` raise one :class:`ModelError` naming the file.
"""

from __future__ import annotations

import dataclasses
import json
import os
import zipfile
from contextlib import contextmanager
from typing import Iterator

import numpy as np

from ..db.database import Database
from ..db.sql import sql
from ..db.statistics import compute_database_stats
from ..embedding.query_embed import QueryEmbedder
from .action_space import Action, ActionSpace
from .agent import ASQPAgent
from .approximation import ApproximationSet
from .config import ASQPConfig
from .preprocess import PreprocessResult, build_coverage
from .trainer import IterationRecord, TrainedModel

FORMAT_VERSION = 4


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


def _require_rows(db: Database, held: ApproximationSet, path: str, verb: str) -> None:
    """Raise a :class:`ModelError` naming ``path`` unless ``db`` holds every
    row of ``held``: ``Database.subset`` would silently drop an id a table
    lacks."""
    for table, ids in held.rows.items():
        if not db.has_table(table) or not np.isin(
            sorted(ids), db.table(table).row_ids
        ).all():
            raise ModelError(
                f"model file {path} {verb} rows of table {table!r} that the "
                f"attached database {db.name!r} does not hold — load the model "
                "with the database it was trained on"
            )


def save_model(model: TrainedModel, directory: str) -> None:
    """Persist a trained model to ``directory`` (created if needed).

    Writes the model's selected approximation set too, selecting it first
    if no default :meth:`TrainedModel.approximation_set` call has yet.
    """
    os.makedirs(directory, exist_ok=True)
    config_dict = dataclasses.asdict(model.config)
    with open(os.path.join(directory, "config.json"), "w") as handle:
        json.dump({"version": FORMAT_VERSION, "config": config_dict}, handle, indent=2)

    prep = model.preprocessed
    queries = {
        "representatives": [q.to_sql() for q in prep.representatives],
        "representative_weights": [
            float(c.weight) for c in model.coverages
        ],
        "training_queries": [q.to_sql() for q in prep.training_queries],
    }
    with open(os.path.join(directory, "queries.json"), "w") as handle:
        json.dump(queries, handle, indent=2)

    actions = [
        {"keys": [[t, int(r)] for t, r in action.keys], "source": action.source_query}
        for action in model.action_space
    ]
    with open(os.path.join(directory, "actions.json"), "w") as handle:
        json.dump(actions, handle)

    arrays: dict[str, np.ndarray] = {
        "representative_embeddings": prep.representative_embeddings,
        "training_embeddings": prep.training_embeddings,
    }
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

    history = {
        "records": [dataclasses.asdict(record) for record in model.history],
        "setup_seconds": model.setup_seconds,
        "fine_tune_count": model.fine_tune_count,
    }
    with open(os.path.join(directory, "history.json"), "w") as handle:
        json.dump(history, handle, indent=2)

    selected = model.approximation_set()
    with open(os.path.join(directory, "selected.json"), "w") as handle:
        json.dump({t: sorted(ids) for t, ids in sorted(selected.rows.items())}, handle)


def load_model(directory: str, db: Database) -> TrainedModel:
    """Load a model saved by :func:`save_model`, attached to ``db``.

    ``db`` must be the database the model was trained on (same content);
    coverage structures are rebuilt by executing the stored representative
    queries against it, and the stored actions and selected set must name
    only its rows. Raises :class:`ModelError` for a damaged directory.
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
        representatives = [sql(text) for text in queries["representatives"]]
        training_queries = [sql(text) for text in queries["training_queries"]]
        weights = np.asarray(queries["representative_weights"], dtype=np.float64)

    with _reading(directory, "actions.json") as path:
        with open(path) as handle:
            raw_actions = json.load(handle)
        actions = [
            Action(
                keys=tuple((t, int(r)) for t, r in entry["keys"]),
                source_query=int(entry["source"]),
            )
            for entry in raw_actions
        ]
        keys = (key for action in actions for key in action.keys)
        _require_rows(db, ApproximationSet.from_keys(keys), path, "names")

    with _reading(directory, "arrays.npz") as path, np.load(path) as arrays:
        action_space = ActionSpace(actions)
        agent = ASQPAgent(len(action_space), config)
        for i in range(len(agent.actor.net.weights)):
            agent.actor.net.weights[i][...] = arrays[f"actor_w{i}"]
            agent.actor.net.biases[i][...] = arrays[f"actor_b{i}"]
        if agent.critic is not None and "critic_w0" in arrays:
            for i in range(len(agent.critic.net.weights)):
                agent.critic.net.weights[i][...] = arrays[f"critic_w{i}"]
                agent.critic.net.biases[i][...] = arrays[f"critic_b{i}"]
        representative_embeddings = arrays["representative_embeddings"]
        training_embeddings = arrays["training_embeddings"]

    with _reading(directory, "history.json") as path:
        with open(path) as handle:
            history = json.load(handle)
        records = [IterationRecord(**record) for record in history["records"]]
        setup_seconds = history["setup_seconds"]
        fine_tune_count = history["fine_tune_count"]

    with _reading(directory, "selected.json") as path:
        with open(path) as handle:
            selected = ApproximationSet.from_mapping(json.load(handle))
        _require_rows(db, selected, path, "selects")

    # Rebuild the reward structures against the attached database.
    rng = np.random.default_rng(config.seed)
    coverages = [
        build_coverage(db, query, float(weights[i]), config.frame_size, rng)
        for i, query in enumerate(representatives)
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
