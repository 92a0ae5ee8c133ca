"""Synthetic FLIGHTS benchmark (paper dataset 3, flight delays).

A single wide fact table in the IDEBench style, plus a small ``carriers``
dimension so the dataset still exercises joins. The aggregate workload is
generated per the IDEBench recipe the paper cites ([11]): COUNT/SUM/AVG
with and without GROUP BY over delay/distance measures, filtered by
carrier, month, origin and route length. This is the dataset used for the
no-workload experiment (Fig. 6) and the AQP comparison (Fig. 12).
"""

from __future__ import annotations

import numpy as np

from ..db.database import Database
from ..db.query import AggFunc, JoinCondition
from ..db.schema import Column, ColumnType, ForeignKey, TableSchema
from ..db.statistics import compute_database_stats
from ..db.table import DictEncoded, Table
from .synthetic import correlated_numeric, synthetic_names, zipf_choice, zipf_weights
from .workloads import (
    DatasetBundle,
    Workload,
    assemble_aggregate,
    assemble_spj,
    make_pooled_predicate_sampler,
)

CARRIER_CODES = ["AA", "DL", "UA", "WN", "B6", "AS", "NK", "F9", "HA", "G4"]
AIRPORTS = ["atl", "lax", "ord", "dfw", "den", "jfk", "sfo", "sea", "mia",
            "bos", "phx", "ewr", "iah", "mco", "lga", "clt", "msp", "dtw",
            "phl", "slc"]


def flights_schemas() -> list[TableSchema]:
    return [
        TableSchema(
            "carriers",
            [
                Column("code", ColumnType.STR),
                Column("name", ColumnType.STR),
                Column("low_cost", ColumnType.INT),
            ],
            primary_key="code",
        ),
        TableSchema(
            "flights",
            [
                Column("id", ColumnType.INT),
                Column("month", ColumnType.INT),
                Column("day_of_week", ColumnType.INT),
                Column("carrier", ColumnType.STR),
                Column("origin", ColumnType.STR),
                Column("dest", ColumnType.STR),
                Column("distance", ColumnType.INT),
                Column("dep_delay", ColumnType.FLOAT),
                Column("arr_delay", ColumnType.FLOAT),
                Column("air_time", ColumnType.FLOAT),
                Column("cancelled", ColumnType.INT),
            ],
            primary_key="id",
            foreign_keys=(ForeignKey("carrier", "carriers", "code"),),
        ),
    ]


def make_flights_database(scale: float = 1.0, seed: int = 5150) -> Database:
    """Generate the synthetic FLIGHTS database."""
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    rng = np.random.default_rng(seed)
    n_flights = max(200, int(8000 * scale))
    schemas = {s.name: s for s in flights_schemas()}

    carriers = Table(
        schemas["carriers"],
        {
            "code": CARRIER_CODES,
            "name": synthetic_names(len(CARRIER_CODES), rng, prefix="Air "),
            "low_cost": [0, 0, 0, 1, 1, 0, 1, 1, 0, 1],
        },
    )

    months = rng.integers(1, 13, size=n_flights)
    carrier = zipf_choice(CARRIER_CODES, n_flights, rng, exponent=0.9)
    origin_weights = zipf_weights(len(AIRPORTS), 1.0)
    origin_idx = rng.choice(len(AIRPORTS), size=n_flights, p=origin_weights)
    dest_idx = rng.choice(len(AIRPORTS), size=n_flights, p=origin_weights)
    # Re-draw self-loops once (a flight to the same airport is nonsense).
    same = origin_idx == dest_idx
    dest_idx[same] = (dest_idx[same] + 1 + rng.integers(0, len(AIRPORTS) - 1,
                                                        size=int(same.sum()))) % len(AIRPORTS)
    distance = rng.integers(120, 3000, size=n_flights)
    # Winter months and long-haul flights are more delay prone.
    seasonal = np.where(np.isin(months, (12, 1, 2, 6, 7)), 8.0, 0.0)
    dep_delay = np.round(
        rng.exponential(12.0, n_flights) - 6.0 + seasonal + 0.002 * distance, 1
    )
    arr_delay = np.round(
        correlated_numeric(dep_delay, 1.0, 9.0, rng), 1
    )
    air_time = np.round(distance / 7.5 + rng.normal(0, 8, n_flights), 1)
    cancelled = (rng.random(n_flights) < 0.02).astype(np.int64)

    flights = Table(
        schemas["flights"],
        {
            "id": np.arange(n_flights),
            "month": months.astype(np.int64),
            "day_of_week": rng.integers(1, 8, size=n_flights),
            "carrier": carrier,
            "origin": DictEncoded.from_picks(AIRPORTS, origin_idx),
            "dest": DictEncoded.from_picks(AIRPORTS, dest_idx),
            "distance": distance.astype(np.int64),
            "dep_delay": dep_delay,
            "arr_delay": arr_delay,
            "air_time": np.maximum(air_time, 15.0),
            "cancelled": cancelled,
        },
    )

    return Database([carriers, flights], name="flights")


_J_FLIGHTS_CARRIERS = JoinCondition("flights.carrier", "carriers.code")


def make_flights_workload(
    db: Database, n_queries: int = 48, seed: int = 31
) -> Workload:
    """IDEBench-style SPJ workload (drill-downs a dashboard would issue)."""
    rng = np.random.default_rng(seed)
    stats = compute_database_stats(db)
    draw_predicate = make_pooled_predicate_sampler(rng)
    queries = []
    template_picks = rng.integers(0, 4, size=n_queries)
    for i, template in enumerate(template_picks):
        name = f"flights_q{i:03d}"
        if template == 0:
            predicates = [
                draw_predicate("in", stats["flights"], "flights", "carrier", rng,
                                    n_values=int(rng.integers(1, 4))),
                draw_predicate("threshold", stats["flights"], "flights",
                                           "dep_delay", rng),
            ]
            queries.append(
                assemble_spj(["flights"], [], predicates, name=name,
                             projection=["flights.carrier", "flights.origin",
                                         "flights.dep_delay"])
            )
        elif template == 1:
            predicates = [
                draw_predicate("equality", stats["flights"], "flights", "origin", rng),
                draw_predicate("range", stats["flights"], "flights", "month", rng),
            ]
            queries.append(
                assemble_spj(["flights"], [], predicates, name=name,
                             projection=["flights.dest", "flights.month",
                                         "flights.arr_delay"])
            )
        elif template == 2:
            predicates = [
                draw_predicate("range", stats["flights"], "flights", "distance", rng),
                draw_predicate("threshold", stats["flights"], "flights",
                                           "arr_delay", rng),
            ]
            queries.append(
                assemble_spj(["flights"], [], predicates, name=name,
                             projection=["flights.origin", "flights.dest",
                                         "flights.distance"])
            )
        else:
            predicates = [
                draw_predicate("equality", stats["carriers"], "carriers",
                                          "name", rng, popularity_weighted=False),
                draw_predicate("range", stats["flights"], "flights", "month", rng),
            ]
            queries.append(
                assemble_spj(
                    ["flights", "carriers"], [_J_FLIGHTS_CARRIERS], predicates,
                    name=name,
                    projection=["carriers.name", "flights.origin",
                                "flights.dep_delay"],
                )
            )
    return Workload(queries, name="flights")


def make_flights_aggregate_workload(
    db: Database, n_queries: int = 60, seed: int = 32
) -> Workload:
    """The IDEBench aggregate workload used in the Fig. 12 AQP comparison.

    Query classes (equal shares): CNT, G+CNT, SUM, G+SUM, AVG, G+AVG —
    the six operator categories of the paper's Figure 12.
    """
    rng = np.random.default_rng(seed)
    stats = compute_database_stats(db)
    draw_predicate = make_pooled_predicate_sampler(rng)
    classes = [
        (AggFunc.COUNT, None, ()),
        (AggFunc.COUNT, None, ("flights.carrier",)),
        (AggFunc.SUM, "flights.distance", ()),
        (AggFunc.SUM, "flights.distance", ("flights.origin",)),
        (AggFunc.AVG, "flights.arr_delay", ()),
        (AggFunc.AVG, "flights.arr_delay", ("flights.month",)),
    ]
    queries = []
    for i in range(n_queries):
        func, column, group_by = classes[i % len(classes)]
        predicate_pool = [
            lambda: draw_predicate("range", stats["flights"], "flights", "month", rng),
            lambda: draw_predicate("in", stats["flights"], "flights", "carrier", rng,
                                        n_values=int(rng.integers(1, 4))),
            lambda: draw_predicate("range", stats["flights"], "flights",
                                           "distance", rng),
            lambda: draw_predicate("equality", stats["flights"], "flights",
                                              "origin", rng),
        ]
        n_predicates = int(rng.integers(1, 3))
        picks = rng.choice(len(predicate_pool), size=n_predicates, replace=False)
        predicates = [predicate_pool[p]() for p in picks]
        queries.append(
            assemble_aggregate(
                ["flights"], [], predicates, func, column,
                group_by=group_by, name=f"flights_agg{i:03d}",
            )
        )
    return Workload(queries, name="flights_agg")


def load_flights(
    scale: float = 1.0,
    seed: int = 5150,
    n_queries: int = 48,
    n_aggregate_queries: int = 60,
) -> DatasetBundle:
    """The full FLIGHTS bundle."""
    db = make_flights_database(scale=scale, seed=seed)
    return DatasetBundle(
        name="flights",
        db=db,
        workload=make_flights_workload(db, n_queries=n_queries, seed=seed + 1),
        aggregate_workload=make_flights_aggregate_workload(
            db, n_queries=n_aggregate_queries, seed=seed + 2
        ),
    )
