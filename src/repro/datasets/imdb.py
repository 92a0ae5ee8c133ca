"""Synthetic IMDB-JOB benchmark (paper dataset 1, scaled ~1000x down).

Schema follows the JOB subset the paper's workload touches: ``title``,
``company`` / ``movie_companies``, ``person`` / ``cast_info`` and
``movie_info``. The workload mixes the JOB-style SPJ templates (year/kind
filters, company-country joins, cast/person joins, genre lookups, and a
five-table combination) with aggregate queries — matching the study cited
in the paper's introduction where roughly half of exploratory queries are
non-aggregate SPJ.
"""

from __future__ import annotations

import numpy as np

from ..db.database import Database
from ..db.query import AggFunc, JoinCondition
from ..db.schema import Column, ColumnType, ForeignKey, TableSchema
from ..db.statistics import compute_database_stats
from ..db.table import DictEncoded, Table
from .synthetic import (
    correlated_numeric,
    skewed_foreign_keys,
    synthetic_names,
    year_column,
    zipf_choice,
)
from .workloads import (
    DatasetBundle,
    Workload,
    assemble_aggregate,
    assemble_spj,
    make_pooled_predicate_sampler,
)

KINDS = ["movie", "tv_series", "short", "video", "documentary"]
COUNTRIES = ["us", "gb", "fr", "de", "jp", "it", "ca", "es", "in", "kr",
             "se", "au", "br", "mx", "nl", "ru", "cn", "dk", "no", "ie"]
ROLES = ["actor", "actress", "director", "producer", "writer", "composer"]
GENDERS = ["m", "f"]
INFO_TYPES = ["genre", "language", "runtime_class", "color"]
GENRES = ["drama", "comedy", "action", "thriller", "documentary", "horror",
          "romance", "scifi", "animation", "crime", "western", "fantasy"]
LANGUAGES = ["english", "french", "german", "japanese", "spanish", "italian",
             "korean", "mandarin", "hindi", "swedish"]
RUNTIME_CLASSES = ["short", "standard", "long", "epic"]
COLORS = ["color", "bw"]

_INFO_VALUES = {
    "genre": GENRES,
    "language": LANGUAGES,
    "runtime_class": RUNTIME_CLASSES,
    "color": COLORS,
}


def _info_column(info_types: DictEncoded, rng: np.random.Generator) -> DictEncoded:
    """One ``movie_info.info`` value per row, drawn from its type's values.

    A single ``rng.integers(0, lengths)`` call, ``lengths`` holding each
    row's list length, consumes the stream exactly as one
    ``rng.choice(_INFO_VALUES[info_type])`` per row would. The draws index
    the concatenated value lists, and are encoded from there
    (:meth:`DictEncoded.from_picks`).
    """
    type_index = np.asarray(
        [INFO_TYPES.index(t) for t in info_types.dictionary], dtype=np.int64
    )[info_types.codes]
    lengths = np.array([len(_INFO_VALUES[t]) for t in INFO_TYPES])
    offsets = np.cumsum(lengths) - lengths
    values = [value for t in INFO_TYPES for value in _INFO_VALUES[t]]
    picks = rng.integers(0, lengths[type_index])
    return DictEncoded.from_picks(values, offsets[type_index] + picks)


def imdb_schemas() -> list[TableSchema]:
    """The six JOB-subset table schemas."""
    return [
        TableSchema(
            "title",
            [
                Column("id", ColumnType.INT),
                Column("title", ColumnType.STR),
                Column("production_year", ColumnType.INT),
                Column("kind", ColumnType.STR),
                Column("rating", ColumnType.FLOAT),
                Column("votes", ColumnType.INT),
            ],
            primary_key="id",
        ),
        TableSchema(
            "company",
            [
                Column("id", ColumnType.INT),
                Column("name", ColumnType.STR),
                Column("country_code", ColumnType.STR),
            ],
            primary_key="id",
        ),
        TableSchema(
            "movie_companies",
            [
                Column("id", ColumnType.INT),
                Column("movie_id", ColumnType.INT),
                Column("company_id", ColumnType.INT),
            ],
            primary_key="id",
            foreign_keys=(
                ForeignKey("movie_id", "title", "id"),
                ForeignKey("company_id", "company", "id"),
            ),
        ),
        TableSchema(
            "person",
            [
                Column("id", ColumnType.INT),
                Column("name", ColumnType.STR),
                Column("gender", ColumnType.STR),
                Column("birth_year", ColumnType.INT),
            ],
            primary_key="id",
        ),
        TableSchema(
            "cast_info",
            [
                Column("id", ColumnType.INT),
                Column("movie_id", ColumnType.INT),
                Column("person_id", ColumnType.INT),
                Column("role", ColumnType.STR),
            ],
            primary_key="id",
            foreign_keys=(
                ForeignKey("movie_id", "title", "id"),
                ForeignKey("person_id", "person", "id"),
            ),
        ),
        TableSchema(
            "movie_info",
            [
                Column("id", ColumnType.INT),
                Column("movie_id", ColumnType.INT),
                Column("info_type", ColumnType.STR),
                Column("info", ColumnType.STR),
            ],
            primary_key="id",
            foreign_keys=(ForeignKey("movie_id", "title", "id"),),
        ),
    ]


def make_imdb_database(scale: float = 1.0, seed: int = 1337) -> Database:
    """Generate the synthetic IMDB database at the given size scale."""
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    rng = np.random.default_rng(seed)
    n_titles = max(50, int(3000 * scale))
    n_companies = max(20, int(300 * scale))
    n_movie_companies = max(60, int(4500 * scale))
    n_persons = max(40, int(2000 * scale))
    n_cast = max(80, int(7000 * scale))
    n_info = max(60, int(5000 * scale))

    schemas = {s.name: s for s in imdb_schemas()}

    years = year_column(n_titles, rng, low=1950, high=2023, mode=2008)
    rating = np.round(
        np.clip(rng.normal(6.4, 1.4, n_titles) + 0.01 * (years - 1990), 1.0, 10.0), 1
    )
    votes = np.maximum(
        5, correlated_numeric(rating, 900.0, 2500.0, rng, minimum=5)
    ).astype(np.int64)
    title = Table(
        schemas["title"],
        {
            "id": np.arange(n_titles),
            "title": synthetic_names(n_titles, rng, prefix="The "),
            "production_year": years,
            "kind": zipf_choice(KINDS, n_titles, rng, exponent=1.0),
            "rating": rating,
            "votes": votes,
        },
    )

    company = Table(
        schemas["company"],
        {
            "id": np.arange(n_companies),
            "name": synthetic_names(n_companies, rng, prefix=""),
            "country_code": zipf_choice(COUNTRIES, n_companies, rng, exponent=1.2),
        },
    )

    movie_companies = Table(
        schemas["movie_companies"],
        {
            "id": np.arange(n_movie_companies),
            "movie_id": skewed_foreign_keys(n_movie_companies, n_titles, rng),
            "company_id": skewed_foreign_keys(n_movie_companies, n_companies, rng),
        },
    )

    person = Table(
        schemas["person"],
        {
            "id": np.arange(n_persons),
            "name": synthetic_names(n_persons, rng),
            "gender": zipf_choice(GENDERS, n_persons, rng, exponent=0.3),
            "birth_year": year_column(n_persons, rng, low=1920, high=2000, mode=1970),
        },
    )

    cast_info = Table(
        schemas["cast_info"],
        {
            "id": np.arange(n_cast),
            "movie_id": skewed_foreign_keys(n_cast, n_titles, rng),
            "person_id": skewed_foreign_keys(n_cast, n_persons, rng),
            "role": zipf_choice(ROLES, n_cast, rng, exponent=0.8),
        },
    )

    info_types = zipf_choice(INFO_TYPES, n_info, rng, exponent=0.5)
    info_values = _info_column(info_types, rng)
    movie_info = Table(
        schemas["movie_info"],
        {
            "id": np.arange(n_info),
            "movie_id": skewed_foreign_keys(n_info, n_titles, rng),
            "info_type": info_types,
            "info": info_values,
        },
    )

    return Database(
        [title, company, movie_companies, person, cast_info, movie_info],
        name="imdb",
    )


# Join edges reused by the templates.
_J_TITLE_MC = JoinCondition("title.id", "movie_companies.movie_id")
_J_MC_COMPANY = JoinCondition("movie_companies.company_id", "company.id")
_J_TITLE_CAST = JoinCondition("title.id", "cast_info.movie_id")
_J_CAST_PERSON = JoinCondition("cast_info.person_id", "person.id")
_J_TITLE_INFO = JoinCondition("title.id", "movie_info.movie_id")


def make_imdb_workload(
    db: Database, n_queries: int = 60, seed: int = 4242
) -> Workload:
    """JOB-style SPJ workload over the synthetic IMDB database."""
    rng = np.random.default_rng(seed)
    stats = compute_database_stats(db)
    draw_predicate = make_pooled_predicate_sampler(rng)
    queries = []
    template_picks = rng.integers(0, 5, size=n_queries)
    for i, template in enumerate(template_picks):
        name = f"imdb_q{i:03d}"
        if template == 0:
            predicates = [
                draw_predicate("range", stats["title"], "title", "production_year", rng),
                draw_predicate("equality", stats["title"], "title", "kind", rng),
            ]
            if rng.random() < 0.5:
                predicates.append(
                    draw_predicate("threshold", stats["title"], "title", "rating", rng)
                )
            queries.append(
                assemble_spj(["title"], [], predicates, name=name,
                             projection=["title.title", "title.production_year",
                                         "title.rating"])
            )
        elif template == 1:
            predicates = [
                draw_predicate("in", stats["company"], "company", "country_code", rng,
                                    n_values=int(rng.integers(1, 4))),
                draw_predicate("range", stats["title"], "title", "production_year", rng),
            ]
            queries.append(
                assemble_spj(
                    ["title", "movie_companies", "company"],
                    [_J_TITLE_MC, _J_MC_COMPANY],
                    predicates,
                    name=name,
                    projection=["title.title", "company.name",
                                "company.country_code"],
                )
            )
        elif template == 2:
            predicates = [
                draw_predicate("equality", stats["cast_info"], "cast_info", "role", rng),
                draw_predicate("threshold", stats["title"], "title", "rating", rng),
            ]
            if rng.random() < 0.4:
                predicates.append(
                    draw_predicate("equality", stats["person"], "person", "gender", rng)
                )
            queries.append(
                assemble_spj(
                    ["title", "cast_info", "person"],
                    [_J_TITLE_CAST, _J_CAST_PERSON],
                    predicates,
                    name=name,
                    projection=["title.title", "person.name", "cast_info.role"],
                )
            )
        elif template == 3:
            predicates = [
                draw_predicate("equality", stats["movie_info"], "movie_info", "info", rng),
                draw_predicate("range", stats["title"], "title", "production_year", rng),
            ]
            queries.append(
                assemble_spj(
                    ["title", "movie_info"],
                    [_J_TITLE_INFO],
                    predicates,
                    name=name,
                    projection=["title.title", "movie_info.info",
                                "title.production_year"],
                )
            )
        else:
            predicates = [
                draw_predicate("in", stats["company"], "company", "country_code", rng,
                                    n_values=2),
                draw_predicate("equality", stats["cast_info"], "cast_info", "role", rng),
                draw_predicate("threshold", stats["title"], "title", "votes", rng),
            ]
            queries.append(
                assemble_spj(
                    ["title", "movie_companies", "company", "cast_info", "person"],
                    [_J_TITLE_MC, _J_MC_COMPANY, _J_TITLE_CAST, _J_CAST_PERSON],
                    predicates,
                    name=name,
                    projection=["title.title", "company.name", "person.name"],
                )
            )
    # Popularity-skewed weights: early queries are "hot".
    weights = np.asarray(
        [1.0 / (1.0 + 0.05 * i) for i in range(len(queries))], dtype=np.float64
    )
    return Workload(queries, weights, name="imdb")


def make_imdb_aggregate_workload(
    db: Database, n_queries: int = 24, seed: int = 2121
) -> Workload:
    """Aggregate companion workload (counts/avgs/sums with GROUP BY)."""
    rng = np.random.default_rng(seed)
    stats = compute_database_stats(db)
    draw_predicate = make_pooled_predicate_sampler(rng)
    queries = []
    for i in range(n_queries):
        name = f"imdb_agg{i:03d}"
        template = int(rng.integers(0, 4))
        if template == 0:
            queries.append(
                assemble_aggregate(
                    ["title"], [],
                    [draw_predicate("range", stats["title"], "title",
                                            "production_year", rng)],
                    AggFunc.COUNT, None, group_by=("title.kind",), name=name,
                )
            )
        elif template == 1:
            queries.append(
                assemble_aggregate(
                    ["title"], [],
                    [draw_predicate("equality", stats["title"], "title", "kind", rng)],
                    AggFunc.AVG, "title.rating", name=name,
                )
            )
        elif template == 2:
            queries.append(
                assemble_aggregate(
                    ["title", "movie_companies", "company"],
                    [_J_TITLE_MC, _J_MC_COMPANY],
                    [draw_predicate("range", stats["title"], "title",
                                            "production_year", rng)],
                    AggFunc.COUNT, None, group_by=("company.country_code",),
                    name=name,
                )
            )
        else:
            queries.append(
                assemble_aggregate(
                    ["title"], [],
                    [draw_predicate("threshold", stats["title"], "title", "rating", rng)],
                    AggFunc.SUM, "title.votes", group_by=("title.kind",), name=name,
                )
            )
    return Workload(queries, name="imdb_agg")


def load_imdb(
    scale: float = 1.0,
    seed: int = 1337,
    n_queries: int = 60,
    n_aggregate_queries: int = 24,
) -> DatasetBundle:
    """The full IMDB bundle: database + SPJ workload + aggregate workload."""
    db = make_imdb_database(scale=scale, seed=seed)
    return DatasetBundle(
        name="imdb",
        db=db,
        workload=make_imdb_workload(db, n_queries=n_queries, seed=seed + 1),
        aggregate_workload=make_imdb_aggregate_workload(
            db, n_queries=n_aggregate_queries, seed=seed + 2
        ),
    )
