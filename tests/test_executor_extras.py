"""Deeper executor tests: multi-way joins, ordering, provenance edge cases."""

import numpy as np
import pytest

from repro.db import (
    AggFunc,
    AggregateQuery,
    AggregateSpec,
    Column,
    ColumnType,
    Comparison,
    Database,
    ExecutionError,
    ExpressionError,
    JoinCondition,
    QueryError,
    SPJQuery,
    Table,
    TableSchema,
    estimate_ndv,
    execute,
    execute_aggregate,
    explain,
    sql,
)


@pytest.fixture
def chain_db():
    """A three-table chain a -> b -> c for multi-hop joins."""
    a = Table(
        TableSchema("a", [Column("id", ColumnType.INT), Column("x", ColumnType.INT)]),
        {"id": [1, 2, 3], "x": [10, 20, 30]},
    )
    b = Table(
        TableSchema("b", [Column("id", ColumnType.INT), Column("a_id", ColumnType.INT),
                          Column("y", ColumnType.STR)]),
        {"id": [1, 2, 3, 4], "a_id": [1, 1, 2, 3], "y": ["p", "q", "p", "r"]},
    )
    c = Table(
        TableSchema("c", [Column("id", ColumnType.INT), Column("b_id", ColumnType.INT),
                          Column("z", ColumnType.FLOAT)]),
        {"id": [1, 2, 3], "b_id": [1, 3, 4], "z": [0.5, 1.5, 2.5]},
    )
    return Database([a, b, c], name="chain")


class TestThreeWayJoins:
    def test_chain_join(self, chain_db):
        q = sql(
            "SELECT a.x, c.z FROM a, b, c "
            "WHERE a.id = b.a_id AND b.id = c.b_id"
        )
        result = execute(chain_db, q)
        got = sorted(zip(result.column("a.x"), result.column("c.z")))
        assert got == [(10, 0.5), (20, 1.5), (30, 2.5)]

    def test_chain_join_with_filters_on_each_table(self, chain_db):
        q = sql(
            "SELECT a.x FROM a, b, c "
            "WHERE a.id = b.a_id AND b.id = c.b_id "
            "AND a.x > 10 AND b.y = 'p' AND c.z < 2.0"
        )
        result = execute(chain_db, q)
        assert list(result.column("a.x")) == [20]

    def test_join_order_independent_of_from_order(self, chain_db):
        joins = (
            JoinCondition("a.id", "b.a_id"),
            JoinCondition("b.id", "c.b_id"),
        )
        q1 = SPJQuery(tables=("a", "b", "c"), joins=joins)
        q2 = SPJQuery(tables=("c", "a", "b"), joins=joins)
        r1 = execute(chain_db, q1)
        r2 = execute(chain_db, q2)
        assert sorted(r1.provenance_keys()) == sorted(r2.provenance_keys())

    def test_disconnected_table_cross_product(self, chain_db):
        q = SPJQuery(
            tables=("a", "b", "c"),
            joins=(JoinCondition("a.id", "b.a_id"),),
        )
        result = execute(chain_db, q)
        assert len(result) == 4 * 3  # (a⋈b) × c

    def test_self_equality_predicate_not_a_join(self, chain_db):
        # a.id = a.x is a plain per-table predicate.
        q = sql("SELECT * FROM a WHERE a.id = a.x")
        assert len(execute(chain_db, q)) == 0


class TestOrderingEdgeCases:
    def test_order_by_unprojected_column(self, mini_db):
        q = sql("SELECT movies.title FROM movies ORDER BY movies.rating LIMIT 2")
        result = execute(mini_db, q)
        assert list(result.column("movies.title")) == ["Gamma", "Epsilon"]

    def test_order_stability_on_ties(self, mini_db):
        q = sql("SELECT movies.title FROM movies ORDER BY movies.year")
        result = execute(mini_db, q)
        titles = list(result.column("movies.title"))
        # 2005 appears twice: Beta (row 1) before Epsilon (row 4) — stable.
        assert titles.index("Beta") < titles.index("Epsilon")

    def test_distinct_after_order_keeps_first(self, mini_db):
        q = sql("SELECT DISTINCT movies.genre FROM movies ORDER BY movies.rating DESC")
        result = execute(mini_db, q)
        assert list(result.column("movies.genre"))[0] == "scifi"  # rating 9.0


class TestPredicateCoverage:
    def test_numeric_in(self, chain_db):
        q = sql("SELECT * FROM a WHERE a.x IN (10, 30)")
        assert len(execute(chain_db, q)) == 2

    def test_or_across_tables_residual(self, chain_db):
        q = sql(
            "SELECT * FROM a, b WHERE a.id = b.a_id AND (a.x = 10 OR b.y = 'r')"
        )
        result = execute(chain_db, q)
        assert len(result) == 3  # two b-rows of a1 plus the 'r' row

    def test_not_predicate(self, chain_db):
        q = sql("SELECT * FROM b WHERE NOT (b.y = 'p')")
        assert len(execute(chain_db, q)) == 2


class TestEmptyInputs:
    def test_empty_table_join(self, chain_db):
        sub = chain_db.subset({"a": [0, 1, 2], "b": []})
        q = sql("SELECT * FROM a, b WHERE a.id = b.a_id")
        assert len(execute(sub, q)) == 0

    def test_all_rows_filtered_then_ordered(self, chain_db):
        q = sql("SELECT * FROM a WHERE a.x > 1000 ORDER BY a.x LIMIT 5")
        assert len(execute(chain_db, q)) == 0


# ------------------------------------------------------------------ #
# a query's cost follows the columns and estimates it reads
# ------------------------------------------------------------------ #
FOUR_TABLE_SQL = (
    "SELECT author.name, publication.title, venue.name "
    "FROM author, writes, publication, venue "
    "WHERE author.id = writes.author_id AND writes.pub_id = publication.id "
    "AND publication.venue_id = venue.id AND publication.year > 2010"
)
#: The join keys its takes copy. The joins run venue, publication,
#: writes, author: publication's filter copies its two keys, and the joins
#: copy publication.id and writes.author_id, each read by a later join.
FOUR_TABLE_GATHERED_KEYS = {"publication.id", "publication.venue_id", "writes.author_id"}


def _recorded_takes(monkeypatch, of):
    """Every name in ``of(rows)`` of the rows some ``ResultSet.take``
    copied."""
    from repro.db.executor import ResultSet

    seen = set()
    take = ResultSet.take

    def recording(self, *args):
        rows = take(self, *args)
        seen.update(of(rows))
        return rows

    monkeypatch.setattr(ResultSet, "take", recording)
    return seen


@pytest.fixture
def gathered(monkeypatch):
    """Every column some ``ResultSet.take`` copied rows of."""
    return _recorded_takes(monkeypatch, lambda result: result.columns)


@pytest.fixture
def gathered_row_ids(monkeypatch):
    """Every table whose row ids some ``ResultSet.take`` copied."""
    return _recorded_takes(monkeypatch, lambda result: result.row_ids)


class TestColumnPruning:
    """A join copies the columns read after it: a later join's keys, the
    residual's and ORDER BY's refs and the outputs, never a key past its
    last join; an aggregate's core copies no row ids."""

    def test_projection_gathers_only_what_the_query_reads(self, tiny_mas, gathered):
        result = execute(tiny_mas.db, sql(FOUR_TABLE_SQL))
        assert len(result) > 0
        assert list(result.columns) == [
            "author.name", "publication.title", "venue.name",
        ]
        # publication.year is read by the scan's predicate, never copied;
        # the filter copies publication's two keys, each join the keys a
        # later join reads.
        assert gathered == FOUR_TABLE_GATHERED_KEYS | set(result.columns)

    def test_count_star_gathers_join_keys_only(
        self, tiny_mas, gathered, gathered_row_ids
    ):
        text = FOUR_TABLE_SQL.replace(
            "author.name, publication.title, venue.name", "COUNT(*)"
        )
        (row,) = execute_aggregate(tiny_mas.db, sql(text)).rows
        assert gathered == FOUR_TABLE_GATHERED_KEYS
        assert gathered_row_ids == set()
        gathered.clear()
        assert row["count(*)"] == len(execute(tiny_mas.db, sql(FOUR_TABLE_SQL)))
        assert gathered_row_ids == {"author", "writes", "publication", "venue"}

    def test_group_by_gathers_its_keys_and_inputs(
        self, tiny_mas, gathered, gathered_row_ids
    ):
        text = (
            "SELECT venue.area, AVG(publication.citations) FROM publication, venue "
            "WHERE publication.venue_id = venue.id AND venue.venue_type = 'journal' "
            "GROUP BY venue.area"
        )
        assert len(execute_aggregate(tiny_mas.db, sql(text))) > 1
        # venue's filter copies its key; the join copies neither key.
        assert gathered == {"venue.id", "venue.area", "publication.citations"}
        assert gathered_row_ids == set()

    def test_select_star_keeps_every_column(self, tiny_mas, gathered):
        text = FOUR_TABLE_SQL.replace(
            "author.name, publication.title, venue.name", "*"
        )
        result = execute(tiny_mas.db, sql(text))
        every = {
            f"{table.name}.{name}"
            for table in tiny_mas.db for name in table.schema.column_names
        }
        assert set(result.columns) == gathered == every
        narrow = execute(tiny_mas.db, sql(FOUR_TABLE_SQL))
        for ref in narrow.columns:
            assert list(narrow.column(ref)) == list(result.column(ref))
        assert narrow.provenance_keys() == result.provenance_keys()

    def test_residual_and_order_by_columns_survive(self, chain_db, gathered):
        q = sql(
            "SELECT b.y FROM a, b WHERE a.id = b.a_id "
            "AND (a.x = 10 OR b.y = 'r') ORDER BY b.id DESC"
        )
        assert list(execute(chain_db, q).column("b.y")) == ["r", "q", "p"]
        assert gathered == {"a.x", "b.id", "b.y"}  # no key past the one join


    def test_constant_predicate_still_counts_every_row(self, chain_db):
        from repro.db.expressions import FalseExpr, Not

        q = AggregateQuery(
            tables=("a", "c"), predicate=Not(FalseExpr()),
            aggregates=(AggregateSpec(AggFunc.COUNT),),
        )
        assert execute_aggregate(chain_db, q).rows == [{"count(*)": 9.0}]


class TestJoinOrderEstimatesOnDemand:
    @pytest.fixture
    def ndv_calls(self, monkeypatch):
        from repro.db import executor

        calls = []

        def counting(array, *args):
            calls.append(len(array))
            return estimate_ndv(array, *args)

        monkeypatch.setattr(executor, "estimate_ndv", counting)
        return calls

    def test_no_choice_no_ndv(self, chain_db, mini_db, ndv_calls):
        two = sql("SELECT movies.title FROM movies, cast_info "
                  "WHERE movies.id = cast_info.movie_id")
        assert len(execute(mini_db, two)) == 7
        # a (3 rows) starts; b, then c, is the only connected table.
        chain = sql("SELECT a.x, c.z FROM a, b, c "
                    "WHERE a.id = b.a_id AND b.id = c.b_id")
        assert len(execute(chain_db, chain)) == 3
        assert ndv_calls == []

    def test_competing_candidates_are_estimated(self, chain_db, ndv_calls):
        # b starts (one row after its filter); a and c both connect to it.
        star = sql("SELECT * FROM a, b, c WHERE a.id = b.a_id "
                   "AND b.id = c.b_id AND b.y = 'q'")
        result = execute(chain_db, star)
        assert ndv_calls
        analyzed = explain(chain_db, star, analyze=True)
        assert list(result.row_ids) == list(analyzed.result.row_ids)
        assert result.provenance_keys() == analyzed.result.provenance_keys()

    @staticmethod
    def _eager_join_order(tables, joins, contexts, sizes):
        """The ordering loop as it was when it estimated every candidate."""
        from repro.db import estimated_join_cardinality
        from repro.db.query import joins_between

        def ndv(ref):
            return estimate_ndv(contexts[ref.split(".", 1)[0]].columns[ref])

        start = min(tables, key=lambda t: sizes[t])
        order, remaining = [start], [t for t in tables if t != start]
        est_rows, estimates = float(sizes[start]), {}
        while remaining:
            best, best_est = None, np.inf
            for t in remaining:
                usable = joins_between(joins, t, set(order))
                if not usable:
                    continue
                est = estimated_join_cardinality(
                    est_rows, ndv(usable[0].left), sizes[t], ndv(usable[0].right)
                )
                for j in usable[1:]:
                    est /= max(ndv(j.left), ndv(j.right), 1)
                if est < best_est:
                    best, best_est = t, est
            if best is None:
                best = min(remaining, key=lambda t: sizes[t])
                best_est = est_rows * max(sizes[best], 1)
            order.append(best)
            remaining.remove(best)
            est_rows = estimates[best] = max(best_est, 1.0)
        return order, estimates

    @pytest.mark.parametrize("seed", range(8))
    def test_order_and_estimates_match_the_eager_ones(self, seed):
        from repro.db.executor import ResultSet, _join_order

        rng = np.random.default_rng(seed)
        tables = [f"t{i}" for i in range(5)]
        contexts, sizes = {}, {}
        for table in tables:
            n = int(rng.integers(1, 40))
            columns = {
                f"{table}.k{j}": rng.integers(0, rng.integers(1, 30), n)
                for j in range(3)
            }
            contexts[table] = ResultSet(columns, {table: np.arange(n)}, n)
            sizes[table] = float(n)
        pairs = [(a, b) for i, a in enumerate(tables) for b in tables[i + 1:]]
        joins = [
            JoinCondition(f"{a}.k{rng.integers(3)}", f"{b}.k{rng.integers(3)}")
            for a, b in (pairs[i] for i in rng.permutation(len(pairs))[:3 + seed % 3])
        ]  # three joins leave a table disconnected: a cross product
        eager_order, eager = self._eager_join_order(tables, joins, contexts, sizes)
        assert _join_order(tables, joins, contexts, sizes, observed=True) == (
            eager_order, eager
        )
        order, estimates = _join_order(tables, joins, contexts, sizes, observed=False)
        assert order == eager_order
        # What was estimated is a prefix of the steps, with the eager values.
        assert list(estimates) == order[1:1 + len(estimates)]
        assert estimates == {table: eager[table] for table in estimates}

    def test_observed_q_error_samples_are_the_plan_s(self, tiny_imdb):
        """A recorded run's hash-join spans carry the planner's estimate
        beside the actual rows: the q-error read from them is EXPLAIN's."""
        from repro import obs
        from repro.db import q_error
        from repro.obs import trace

        query = sql(
            "SELECT title.title FROM title, movie_companies, company "
            "WHERE title.id = movie_companies.movie_id "
            "AND movie_companies.company_id = company.id "
            "AND title.production_year > 1990"
        )
        plan = explain(tiny_imdb.db, query, analyze=True)
        joins = [n for n in plan.operators() if n.op == "hash_join"]
        trace.reset()
        obs.enable()
        try:
            execute(tiny_imdb.db, query)
        finally:
            obs.disable()

        def walk(node):
            yield node
            for child in node.get("children", []):
                yield from walk(child)

        spans = [
            node for root in trace.tree() for node in walk(root)
            if node["name"] == "execute.hash_join"
        ]
        trace.reset()
        samples = [
            q_error(sp["counters"]["estimated_rows"], sp["counters"]["rows_out"])
            for sp in spans
        ]
        assert len(joins) == 2
        assert samples == [
            q_error(node.estimated_rows, node.actual_rows) for node in reversed(joins)
        ]
        assert all(sample >= 1.0 for sample in samples)


_AUTHOR_WRITES = dict(
    tables=("author", "writes"),
    joins=(JoinCondition("author.id", "writes.author_id"),),
)
_AUTHOR_COLUMNS = [
    "author.affiliation_country", "author.h_index", "author.id", "author.name",
]
_JOINED_COLUMNS = _AUTHOR_COLUMNS + ["writes.author_id", "writes.id", "writes.pub_id"]
_COUNT = (AggregateSpec(AggFunc.COUNT),)

#: case -> (SPJ form or None, aggregate form, exception, message, does plain EXPLAIN notice)
_BAD_QUERIES = {
    "bare ref matching two tables": (
        dict(tables=("author", "venue"), predicate=Comparison("name", "=", "x"),
             projection=("author.id",)),
        dict(tables=("author", "venue"), predicate=Comparison("name", "=", "x"),
             aggregates=_COUNT),
        ExpressionError,
        "ambiguous column reference 'name': ['venue.name', 'author.name']",
        True,
    ),
    "unknown column in a scan predicate": (
        dict(_AUTHOR_WRITES, predicate=Comparison("author.nope", ">", 3),
             projection=("author.id",)),
        dict(_AUTHOR_WRITES, predicate=Comparison("author.nope", ">", 3),
             aggregates=_COUNT),
        ExpressionError,
        f"unknown column reference 'author.nope'; context has {_AUTHOR_COLUMNS}",
        True,
    ),
    "unknown output column": (
        dict(_AUTHOR_WRITES, projection=("author.nope",)),
        dict(_AUTHOR_WRITES, aggregates=_COUNT, group_by=("author.nope",)),
        QueryError,
        f"result has no column 'author.nope'; available: {_JOINED_COLUMNS}",
        True,
    ),
    "join condition not spanning its inputs": (
        dict(tables=("author", "writes"), projection=("author.id",),
             joins=(JoinCondition("author.id", "writes.nope"),)),
        dict(tables=("author", "writes"), aggregates=_COUNT,
             joins=(JoinCondition("author.id", "writes.nope"),)),
        ExecutionError,
        "join condition 'author.id = writes.nope' does not span the two inputs",
        False,  # plain EXPLAIN runs no join
    ),
    "SUM of a string column": (
        None,
        dict(_AUTHOR_WRITES, aggregates=(AggregateSpec(AggFunc.SUM, "author.name"),)),
        QueryError,
        "SUM(author.name) needs a numeric column; author.name holds strings",
        True,
    ),
}


#: entry point -> (callable, the query forms it takes)
_ENTRY_POINTS = {
    "execute": (execute, (SPJQuery,)),
    "execute_aggregate": (execute_aggregate, (AggregateQuery,)),
    "explain": (explain, (SPJQuery, AggregateQuery)),
    "explain_analyze": (
        lambda db, query: explain(db, query, analyze=True), (SPJQuery, AggregateQuery),
    ),
}


@pytest.mark.parametrize("case, entry", [
    (case, entry) for case in sorted(_BAD_QUERIES) for entry in sorted(_ENTRY_POINTS)
    if _BAD_QUERIES[case][0] is not None or entry != "execute"
])
def test_bad_query_fails_as_it_did_with_every_column_carried(tiny_mas, case, entry):
    """Type and message are those of the commit before columns were pruned."""
    spj, aggregate, error, message, explain_notices = _BAD_QUERIES[case]
    run, forms = _ENTRY_POINTS[entry]
    queries = [
        form(**kwargs)
        for form, kwargs in ((SPJQuery, spj), (AggregateQuery, aggregate))
        if form in forms and kwargs is not None
    ]
    assert queries
    for query in queries:
        if entry == "explain" and not explain_notices:
            assert run(tiny_mas.db, query).root is not None
            continue
        with pytest.raises(error) as caught:
            run(tiny_mas.db, query)
        assert str(caught.value) == message
