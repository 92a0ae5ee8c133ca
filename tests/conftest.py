"""Shared fixtures: a small movie database, tiny dataset bundles, and a
recorded telemetry sink."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import load_flights, load_imdb, load_mas
from repro.db import (
    Column,
    ColumnType,
    Database,
    ForeignKey,
    Table,
    TableSchema,
)
from repro.obs import rundir, telemetry


@pytest.fixture
def movie_schema() -> TableSchema:
    return TableSchema(
        "movies",
        [
            Column("id", ColumnType.INT),
            Column("title", ColumnType.STR),
            Column("year", ColumnType.INT),
            Column("rating", ColumnType.FLOAT),
            Column("genre", ColumnType.STR),
        ],
        primary_key="id",
    )


@pytest.fixture
def cast_schema() -> TableSchema:
    return TableSchema(
        "cast_info",
        [
            Column("id", ColumnType.INT),
            Column("movie_id", ColumnType.INT),
            Column("actor", ColumnType.STR),
        ],
        primary_key="id",
        foreign_keys=(ForeignKey("movie_id", "movies", "id"),),
    )


@pytest.fixture
def movies(movie_schema) -> Table:
    return Table(
        movie_schema,
        {
            "id": [1, 2, 3, 4, 5, 6],
            "title": ["Alpha", "Beta", "Gamma", "Delta", "Epsilon", "Zeta"],
            "year": [1999, 2005, 2010, 2020, 2005, 2015],
            "rating": [7.1, 8.2, 5.5, 9.0, 6.0, 7.7],
            "genre": ["drama", "action", "drama", "scifi", "action", "drama"],
        },
    )


@pytest.fixture
def cast(cast_schema) -> Table:
    return Table(
        cast_schema,
        {
            "id": [10, 11, 12, 13, 14, 15, 16],
            "movie_id": [1, 1, 2, 3, 4, 5, 6],
            "actor": ["ann", "bob", "ann", "cid", "dee", "bob", "ann"],
        },
    )


@pytest.fixture
def mini_db(movies, cast) -> Database:
    return Database([movies, cast], name="mini")


@pytest.fixture(scope="session")
def tiny_imdb():
    """A very small IMDB bundle for integration-level tests."""
    return load_imdb(scale=0.1, n_queries=20, n_aggregate_queries=8)


@pytest.fixture(scope="session")
def tiny_mas():
    return load_mas(scale=0.1, n_queries=16, n_aggregate_queries=6)


@pytest.fixture(scope="session")
def tiny_flights():
    return load_flights(scale=0.1, n_queries=16, n_aggregate_queries=12)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def recorded(tmp_path):
    """Point the telemetry sink at a fresh run directory; returns the reader
    of its records, ``rundir.load`` — the one path every view reads."""
    directory = tmp_path / "recorded"
    directory.mkdir()
    telemetry.configure(rundir.telemetry_sink(str(directory)))
    yield lambda: rundir.load(str(directory)).records
    telemetry.configure(None)
