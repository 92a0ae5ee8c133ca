"""Tests for EXPLAIN / EXPLAIN ANALYZE operator trees (repro.db.plan)."""

import functools
import hashlib
import json
import os
import re
import subprocess
import sys

import pytest

from repro import obs
from repro.db import (
    ExecutionError,
    PlanNode,
    QueryStats,
    execute,
    execute_aggregate,
    explain,
    q_error,
    split_explain,
    sql,
)
from repro.obs import telemetry, trace


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    trace.reset()
    telemetry.reset()
    telemetry.configure(None)
    yield
    obs.disable()
    trace.reset()
    telemetry.reset()
    telemetry.configure(None)


JOIN_SQL = (
    "SELECT movies.title FROM movies, cast_info "
    "WHERE movies.id = cast_info.movie_id AND movies.year > 2000"
)


# ------------------------------------------------------------------ #
# q-error
# ------------------------------------------------------------------ #
class TestQError:
    def test_exact_is_one(self):
        assert q_error(10, 10) == 1.0

    def test_symmetric(self):
        assert q_error(10, 100) == q_error(100, 10) == pytest.approx(10.0)

    def test_zero_actual_clamped(self):
        # Empty results clamp to one row instead of producing infinity.
        assert q_error(50, 0) == pytest.approx(50.0)

    def test_always_at_least_one(self):
        assert q_error(0.2, 0.4) == 1.0


# ------------------------------------------------------------------ #
# estimate-only EXPLAIN
# ------------------------------------------------------------------ #
class TestExplain:
    def test_does_not_execute(self, mini_db):
        plan = explain(mini_db, sql(JOIN_SQL))
        assert plan.analyze is False
        assert plan.result is None
        assert plan.total_seconds is None
        assert all(node.actual_rows is None for node in plan.operators())
        assert all(node.seconds is None for node in plan.operators())

    def test_operator_shape(self, mini_db):
        plan = explain(mini_db, sql(JOIN_SQL))
        ops = [node.op for node in plan.operators()]
        assert ops.count("scan") == 2
        assert "hash_join" in ops
        assert "filter" in ops      # pushdown of movies.year > 2000
        assert "project" in ops     # movies.title
        assert plan.root.op == "project"

    def test_every_operator_has_estimate(self, mini_db):
        plan = explain(mini_db, sql(JOIN_SQL))
        for node in plan.operators():
            assert node.estimated_rows is not None
            assert node.estimated_rows >= 0

    def test_scan_estimate_is_table_size(self, mini_db):
        plan = explain(mini_db, sql("SELECT * FROM movies"))
        scans = [n for n in plan.operators() if n.op == "scan"]
        assert scans[0].estimated_rows == 6.0

    def test_filter_estimate_below_scan(self, mini_db):
        plan = explain(
            mini_db, sql("SELECT * FROM movies WHERE movies.year > 2015")
        )
        filt = next(n for n in plan.operators() if n.op == "filter")
        scan = next(n for n in plan.operators() if n.op == "scan")
        assert filt.estimated_rows < scan.estimated_rows

    def test_limit_caps_estimate(self, mini_db):
        plan = explain(mini_db, sql("SELECT * FROM movies LIMIT 2"))
        assert plan.root.op == "limit"
        assert plan.root.estimated_rows == 2.0

    def test_sort_and_distinct_nodes(self, mini_db):
        plan = explain(
            mini_db,
            sql(
                "SELECT DISTINCT movies.genre FROM movies "
                "ORDER BY movies.genre"
            ),
        )
        ops = [node.op for node in plan.operators()]
        assert "sort" in ops
        assert "distinct" in ops

    def test_unknown_table_raises(self, mini_db):
        with pytest.raises(ExecutionError):
            explain(mini_db, sql("SELECT * FROM bogus"))

    def test_aggregate_root(self, mini_db):
        plan = explain(
            mini_db,
            sql(
                "SELECT movies.genre, COUNT(*) FROM movies "
                "GROUP BY movies.genre"
            ),
        )
        assert plan.root.op == "aggregate"
        # three distinct genres; the NDV estimate is exact on tiny data
        assert plan.root.estimated_rows == pytest.approx(3.0, rel=0.5)


# ------------------------------------------------------------------ #
# EXPLAIN ANALYZE
# ------------------------------------------------------------------ #
class TestExplainAnalyze:
    def test_actuals_match_execute(self, mini_db):
        query = sql(JOIN_SQL)
        plan = explain(mini_db, query, analyze=True)
        expected = execute(mini_db, query)
        assert plan.analyze is True
        assert plan.result is not None
        assert plan.result.n_rows == expected.n_rows
        assert plan.root.actual_rows == expected.n_rows

    def test_per_operator_actuals_and_time(self, mini_db):
        plan = explain(mini_db, sql(JOIN_SQL), analyze=True)
        for node in plan.operators():
            assert node.actual_rows is not None
            assert node.seconds is not None and node.seconds >= 0
            assert node.q is not None and node.q >= 1.0
        assert plan.max_q_error() >= 1.0
        assert plan.total_seconds > 0

    def test_scan_actual_is_table_size(self, mini_db):
        plan = explain(mini_db, sql(JOIN_SQL), analyze=True)
        scans = {n.label: n for n in plan.operators() if n.op == "scan"}
        assert scans["movies"].actual_rows == 6
        assert scans["cast_info"].actual_rows == 7

    def test_aggregate_analyze(self, mini_db):
        query = sql(
            "SELECT movies.genre, COUNT(*) FROM movies GROUP BY movies.genre"
        )
        plan = explain(mini_db, query, analyze=True)
        expected = execute_aggregate(mini_db, query)
        assert plan.root.op == "aggregate"
        assert plan.root.actual_rows == len(expected)
        assert plan.root.seconds is not None and plan.root.seconds >= 0

    def test_three_table_join_imdb(self, tiny_imdb):
        """Acceptance criterion: per-operator est/act/q/time on a 3-way join."""
        query = sql(
            "SELECT title.title FROM title, movie_companies, company "
            "WHERE title.id = movie_companies.movie_id "
            "AND movie_companies.company_id = company.id "
            "AND title.production_year > 1990"
        )
        plan = explain(tiny_imdb.db, query, analyze=True)
        ops = [node.op for node in plan.operators()]
        assert ops.count("scan") == 3
        assert ops.count("hash_join") + ops.count("cross_join") == 2
        for node in plan.operators():
            assert node.estimated_rows is not None
            assert node.actual_rows is not None
            assert node.q >= 1.0
            assert node.seconds >= 0
        assert plan.result.n_rows == execute(tiny_imdb.db, query).n_rows


# ------------------------------------------------------------------ #
# rendering and serialization
# ------------------------------------------------------------------ #
class TestPlanRendering:
    def test_format_text(self, mini_db):
        text = explain(mini_db, sql(JOIN_SQL), analyze=True).format()
        assert text.startswith("EXPLAIN ANALYZE:")
        assert "-> " in text
        assert "est=" in text and "act=" in text and "q=" in text
        assert text.strip().endswith("ms")

    def test_format_estimate_only(self, mini_db):
        text = explain(mini_db, sql(JOIN_SQL)).format()
        assert text.startswith("EXPLAIN:")
        assert "act=" not in text

    def test_to_dict_json_round_trip(self, mini_db):
        plan = explain(mini_db, sql(JOIN_SQL), analyze=True)
        payload = json.loads(json.dumps(plan.to_dict()))
        assert payload["analyze"] is True
        assert payload["max_q_error"] >= 1.0
        assert payload["plan"]["op"] == plan.root.op

    def test_operator_stats_flat(self, mini_db):
        plan = explain(mini_db, sql(JOIN_SQL), analyze=True)
        rows = plan.operator_stats()
        assert len(rows) == len(plan.operators())
        assert all("op" in row and "q_error" in row for row in rows)

    def test_walk_preorder(self):
        leaf = PlanNode("scan", "t")
        root = PlanNode("filter", "p", children=[leaf])
        assert [n.op for n in root.walk()] == ["filter", "scan"]

    def test_query_stats_keys_and_analyze_footer_shape(self, mini_db):
        obs.enable()
        plan = explain(mini_db, sql(JOIN_SQL), analyze=True)
        assert set(plan.query_stats) == set(QueryStats().to_dict()) == {
            "trace_id", "wall_seconds", "cpu_seconds", "rows_scanned", "rows_produced",
        }
        footer = plan.format().splitlines()[-3:]
        assert re.fullmatch(r"total: [0-9.]+ ms", footer[0])
        assert footer[1] == f"trace: {plan.query_stats['trace_id']}"
        assert re.fullmatch(
            r"timing: wall=[0-9.]+ ms cpu=[0-9.]+ ms"
            rf" scanned={plan.query_stats['rows_scanned']}"
            rf" produced={plan.result.n_rows}",
            footer[2],
        )
        assert "parallel" not in plan.format()


# ------------------------------------------------------------------ #
# telemetry integration
# ------------------------------------------------------------------ #
class TestPlanTelemetry:
    def test_analyze_emits_plan_record_when_enabled(self, mini_db, recorded):
        obs.enable()
        explain(mini_db, sql(JOIN_SQL), analyze=True)
        records = [r for r in recorded() if r["stream"] == "plan"]
        assert len(records) == 1
        assert records[0]["max_q_error"] >= 1.0
        assert records[0]["operators"]

    def test_no_telemetry_when_disabled(self, mini_db, recorded):
        explain(mini_db, sql(JOIN_SQL), analyze=True)
        assert recorded() == []

    def test_passive_join_q_error_from_spans(self, mini_db):
        """Every instrumented execute() leaves each join's q-error on its
        ``execute.hash_join`` span: the estimate beside the actual rows."""
        obs.enable()
        execute(mini_db, sql(JOIN_SQL))
        (root,) = trace.roots()
        joins = [sp for sp in root.children if sp.name == "execute.hash_join"]
        assert joins
        for sp in joins:
            counters = sp.counters
            assert q_error(counters["estimated_rows"], counters["rows_out"]) >= 1.0

    def test_no_passive_q_error_when_disabled(self, mini_db, recorded):
        execute(mini_db, sql(JOIN_SQL))
        assert trace.roots() == [] and recorded() == []


# ------------------------------------------------------------------ #
# single-process execution
# ------------------------------------------------------------------ #
def test_execution_never_imports_multiprocessing():
    """Scans, joins and group-bys over a 40k-row table run in-process."""
    script = (
        "import sys\n"
        "import numpy as np\n"
        "import repro\n"
        "from repro.db import (Column, ColumnType, Database, Table,\n"
        "                      TableSchema, execute, execute_aggregate, sql)\n"
        "n = 40_000\n"
        "schema = TableSchema('t', (Column('k', ColumnType.INT),\n"
        "                           Column('v', ColumnType.INT)))\n"
        "table = Table(schema, {'k': np.arange(n) % 64, 'v': np.arange(n)})\n"
        "db = Database([table])\n"
        "assert execute(db, sql('SELECT v FROM t WHERE v >= 100')).n_rows"
        " == n - 100\n"
        "groups = execute_aggregate(\n"
        "    db, sql('SELECT k, COUNT(*) FROM t GROUP BY k'))\n"
        "assert len(groups.rows) == 64\n"
        "assert 'multiprocessing' not in sys.modules\n"
    )
    src_dir = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src_dir)
    subprocess.run(
        [sys.executable, "-c", script], check=True, env=env, timeout=120
    )


# ------------------------------------------------------------------ #
# SQL prefix parsing
# ------------------------------------------------------------------ #
class TestSplitExplain:
    def test_no_prefix(self):
        assert split_explain("SELECT 1") == ("SELECT 1", False, False)

    def test_explain_prefix(self):
        rest, is_explain, analyze = split_explain("EXPLAIN SELECT 1")
        assert (rest, is_explain, analyze) == ("SELECT 1", True, False)

    def test_explain_analyze_prefix(self):
        rest, is_explain, analyze = split_explain(
            "explain analyze SELECT * FROM t"
        )
        assert rest == "SELECT * FROM t"
        assert is_explain and analyze

    def test_leading_whitespace_and_case(self):
        rest, is_explain, analyze = split_explain("  Explain   Analyze  SELECT 1")
        assert rest == "SELECT 1"
        assert is_explain and analyze


# ------------------------------------------------------------------ #
# golden: results, EXPLAIN and EXPLAIN ANALYZE trees of whole workloads
# ------------------------------------------------------------------ #
_HAND_QUERIES = {
    "imdb": (
        "SELECT title.title, title.votes FROM title WHERE title.votes > 1000"
        " ORDER BY title.votes DESC LIMIT 7",
        "SELECT DISTINCT title.kind FROM title ORDER BY title.kind",
        "SELECT DISTINCT company.country_code FROM company, movie_companies"
        " WHERE company.id = movie_companies.company_id LIMIT 3",
        "SELECT title.id FROM title WHERE title.title LIKE '%a%'"
        " ORDER BY title.id LIMIT 20",
        "SELECT title.id, company.id FROM title, movie_companies, company"
        " WHERE title.id = movie_companies.movie_id"
        " AND movie_companies.company_id = company.id"
        " AND (title.votes > 50000 OR company.country_code = 'us')",
        "SELECT title.id, company.id FROM title, company"
        " WHERE title.votes > 12000 AND company.id < 5",
        "SELECT * FROM company ORDER BY name LIMIT 5",
        "SELECT title.kind, COUNT(*), AVG(title.votes)"
        " FROM title, movie_companies"
        " WHERE title.id = movie_companies.movie_id"
        " AND title.production_year > 1990 GROUP BY title.kind",
        "SELECT COUNT(*) FROM title, company"
        " WHERE company.id < 3 AND title.votes > 12000",
    ),
    # Range predicates on sorted id columns of the 3x tables: a filter
    # keeping a prefix, one keeping no row, and one under an aggregate.
    "imdb_large": (
        "SELECT cast_info.role FROM cast_info, title"
        " WHERE cast_info.movie_id = title.id AND cast_info.id < 3000"
        " AND title.id BETWEEN 100 AND 4500",
        "SELECT title.title FROM title WHERE title.id > 999999",
        "SELECT movie_info.info, COUNT(*) FROM movie_info"
        " WHERE movie_info.id >= 9000 AND movie_info.info_type = 'genre'"
        " GROUP BY movie_info.info",
    ),
}

# SHA-1 of (results, EXPLAIN trees, EXPLAIN ANALYZE trees minus seconds)
# over each dataset's generator workloads + the hand-written queries
# above, recorded at the commit before the executor's walkers were merged.
# imdb_large's two tree digests were re-recorded when zone maps went: its
# scan nodes lost their block counts, and the filter that kept no row
# (title.id > 999999) its zone-map cap, so it estimates 0.5 rows, not 0.
_GOLDEN = {
    "imdb": (
        93,
        "5d1d630263184d0384cb0c08d0f77c2c9bfac13a",
        "2f69fb76793136e77df02260a12be5c83e7f5ba2",
        "755a610be0edbc4a91a0d590452cbd9cc91f9ca9",
    ),
    "mas": (
        70,
        "b3477207d8ec2c340952519606cee62ae608d262",
        "be40bf9e2c63c835be5404d198bd969e0df17858",
        "98e9967e07a2aeaa5adf402731e0da985fc1eecd",
    ),
    "flights": (
        108,
        "3b2aa4ce4b67bc62f30722c0f1cd11cae233e928",
        "e52ef8fcdd4eb1928a121aacee077207f4ab949c",
        "f7f974ba341d4f89f70b8138300e7a310f7f1bd4",
    ),
    "imdb_large": (
        87,
        "308dfe98a54286e86c41ac430f7277ab3a0fe14d",
        "a7a2347e61151591dce78777d9064557734ef570",
        "e8188fb08e6f9410caa5c1f247ccc9608cd7c490",
    ),
}


@functools.lru_cache(maxsize=None)
def _golden_queries(name):
    from repro.datasets import load_flights, load_imdb, load_mas

    loader, scale = {
        "imdb": (load_imdb, 0.3),
        "mas": (load_mas, 0.3),
        "flights": (load_flights, 0.3),
        "imdb_large": (load_imdb, 3.0),
    }[name]
    bundle = loader(scale=scale)
    queries = list(bundle.workload) + list(bundle.aggregate_workload)
    queries += [sql(text) for text in _HAND_QUERIES.get(name, ())]
    return bundle.db, queries


def _run(db, query):
    if query.is_aggregate:
        return execute_aggregate(db, query)
    return execute(db, query)


def _result_record(result):
    """Everything a caller can read off a result, JSON-able."""
    if hasattr(result, "rows"):
        return [sorted((k, repr(v)) for k, v in row.items()) for row in result.rows]
    return {
        "columns": {ref: result.column(ref).tolist() for ref in result.columns},
        "row_ids": {t: ids.tolist() for t, ids in sorted(result.row_ids.items())},
    }


def _tree_record(plan):
    def strip(node):
        node.pop("seconds", None)
        for child in node.get("children", ()):
            strip(child)
        return node

    return strip(plan.root.to_dict())


def _golden_digests(db, queries):
    digests = [hashlib.sha1() for _ in range(3)]
    for query in queries:
        records = (
            _result_record(_run(db, query)),
            _tree_record(explain(db, query)),
            _tree_record(explain(db, query, analyze=True)),
        )
        for digest, record in zip(digests, records):
            digest.update(
                json.dumps(record, sort_keys=True, default=repr).encode()
            )
    return [d.hexdigest() for d in digests]


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_workload_plans_and_results_golden(name):
    db, queries = _golden_queries(name)
    n_queries, *expected = _GOLDEN[name]
    assert len(queries) == n_queries
    assert _golden_digests(db, queries) == expected


def _column_digests(db) -> dict:
    """SHA-1 of every stored array of ``db``: row ids, each column's
    physical array and each dictionary's values."""
    digests = {}
    for table_name in db.table_names:
        table = db.table(table_name)
        digests[table_name] = hashlib.sha1(table.row_ids.tobytes()).hexdigest()
        for column in table.schema.column_names:
            digest = hashlib.sha1(table.raw_column(column).tobytes())
            dictionary = table.dictionary(column)
            if dictionary is not None:
                digest.update("\x00".join(map(str, dictionary)).encode())
            digests[f"{table_name}.{column}"] = digest.hexdigest()
    return digests


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_workloads_leave_base_tables_unchanged(name):
    """A join keeps a fully hit probe side's arrays, so a result can share
    a base table's: running every SPJ, aggregate and hand query of the
    golden workloads and reading every answer changes no stored byte."""
    db, queries = _golden_queries(name)
    before = _column_digests(db)
    for query in queries:
        _result_record(_run(db, query))
    assert _column_digests(db) == before


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_workload_golden_on_prepared_plans(name):
    """A second pass runs every query on the plan the first one prepared
    and gives the same results, EXPLAIN and EXPLAIN ANALYZE."""
    db, queries = _golden_queries(name)
    expected = list(_GOLDEN[name][1:])
    db.plans.clear()
    assert _golden_digests(db, queries) == expected
    prepared = dict(db.plans)
    assert len(prepared) == len(set(queries))
    assert _golden_digests(db, queries) == expected
    assert all(db.plans[query] is plan for query, plan in prepared.items())


# ------------------------------------------------------------------ #
# one pass, three modes
# ------------------------------------------------------------------ #
THREE_TABLE_SQL = (
    "SELECT title.title FROM title, movie_companies, company "
    "WHERE title.id = movie_companies.movie_id "
    "AND movie_companies.company_id = company.id "
    "AND title.production_year > 1990"
)
THREE_TABLE_GROUP_SQL = (
    "SELECT company.country_code, COUNT(*), AVG(title.votes) "
    "FROM title, movie_companies, company "
    "WHERE title.id = movie_companies.movie_id "
    "AND movie_companies.company_id = company.id "
    "AND title.production_year > 1990 GROUP BY company.country_code"
)


def _raiser(name):
    def raising(*args, **kwargs):
        raise AssertionError(f"{name} reached")

    return raising


def test_hot_path_pays_nothing_for_explaining(tiny_imdb, monkeypatch):
    from repro.db import And, Comparison, JoinCondition, executor

    db = tiny_imdb.db
    expected = _result_record(execute(db, sql(THREE_TABLE_SQL)))
    expected_groups = execute_aggregate(db, sql(THREE_TABLE_GROUP_SQL)).rows
    monkeypatch.setattr(PlanNode, "__init__", _raiser("PlanNode"))
    monkeypatch.setattr(executor, "_scan_selectivity", _raiser("_scan_selectivity"))
    for node_type in (And, Comparison, JoinCondition):
        monkeypatch.setattr(node_type, "to_sql", _raiser("to_sql"))
    assert _result_record(execute(db, sql(THREE_TABLE_SQL))) == expected
    assert execute_aggregate(db, sql(THREE_TABLE_GROUP_SQL)).rows == expected_groups
    assert expected["columns"]["title.title"] and expected_groups


def test_plain_explain_executes_nothing(tiny_imdb, monkeypatch):
    from repro.db import kernels

    for kernel in (
        "join_positions", "distinct_positions", "group_codes", "group_rows",
    ):
        monkeypatch.setattr(kernels, kernel, _raiser(kernel))
    distinct_sql = THREE_TABLE_SQL.replace("SELECT", "SELECT DISTINCT")
    ops = [n.op for n in explain(tiny_imdb.db, sql(distinct_sql)).operators()]
    assert ops == [
        "distinct", "project", "hash_join", "hash_join",
        "scan", "scan", "filter", "scan",
    ]
    plan = explain(tiny_imdb.db, sql(THREE_TABLE_GROUP_SQL))
    assert [n.op for n in plan.operators()][:3] == [
        "aggregate", "hash_join", "hash_join",
    ]
    assert all(n.actual_rows is None for n in plan.operators())
    with pytest.raises(AssertionError, match="join_positions reached"):
        execute(tiny_imdb.db, sql(THREE_TABLE_SQL))


@pytest.mark.parametrize("name", ["imdb", "mas", "flights"])
def test_analyze_result_is_the_executed_result(name):
    db, queries = _golden_queries(name)
    for query in queries:
        plan = explain(db, query, analyze=True)
        assert _result_record(plan.result) == _result_record(_run(db, query))
        assert plan.root.actual_rows == len(plan.result)


@pytest.mark.parametrize("tables", [("movies",), ("movies", "cast_info")])
def test_same_table_join_condition_rejected(tables):
    from repro.db import AggFunc, AggregateQuery, AggregateSpec, JoinCondition
    from repro.db import QueryError, SPJQuery

    joins = (JoinCondition("movies.id", "movies.year"),)
    with pytest.raises(QueryError, match="one table"):
        SPJQuery(tables=tables, joins=joins)
    with pytest.raises(QueryError, match="one table"):
        AggregateQuery(
            tables=tables, joins=joins,
            aggregates=(AggregateSpec(AggFunc.COUNT),),
        )


def test_analyze_and_execute_share_the_observed_path(mini_db):
    obs.enable()
    query = sql(JOIN_SQL)
    executed = execute(mini_db, query).stats.to_dict()
    analyzed = explain(mini_db, query, analyze=True).query_stats
    assert set(analyzed) == set(executed)
    for key in ("rows_scanned", "rows_produced"):
        assert analyzed[key] == executed[key]
    assert analyzed["rows_scanned"] == 13 and analyzed["rows_produced"] > 0
    assert [root.name for root in trace.roots()] == [
        "execute", "execute.explain_analyze",
    ]


_UNRUNNABLE = [
    "SELECT title.id FROM title ORDER BY title.nope",
    "SELECT title.nope FROM title",
    "SELECT title.id FROM title WHERE title.nope > 3",
    "SELECT title.kind, AVG(title.nope) FROM title GROUP BY title.kind",
    "SELECT title.id FROM title, company ORDER BY id",
    "SELECT SUM(title.title) FROM title",
]


@pytest.mark.parametrize("text", _UNRUNNABLE)
def test_every_mode_refuses_a_query_that_cannot_run(tiny_imdb, text):
    from repro.db import ExpressionError, QueryError

    query = sql(text)
    raised = []
    for attempt in (
        lambda: _run(tiny_imdb.db, query),
        lambda: explain(tiny_imdb.db, query),
        lambda: explain(tiny_imdb.db, query, analyze=True),
    ):
        with pytest.raises((QueryError, ExpressionError)) as caught:
            attempt()
        raised.append(caught.type)
    assert len(set(raised)) == 1
    if "SUM" in text:
        assert "SUM(title.title)" in str(caught.value)
