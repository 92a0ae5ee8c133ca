"""In-memory column-store relational engine.

This package is the substrate the paper ran on PostgreSQL: typed tables
(string columns dictionary-encoded, numbers stored plain), vectorized
predicates evaluated on dictionary codes where they can be, hash
equi-joins, aggregation, a small SQL parser, statistics and sampling
primitives.
"""

from .database import Database
from .executor import (
    AggregateResult,
    ExecutionError,
    QueryStats,
    ResultSet,
    TimedExecution,
    execute,
    execute_aggregate,
    explain,
    timed_execute,
)
from .expressions import (
    And,
    Between,
    Comparison,
    Expression,
    ExpressionError,
    FalseExpr,
    InSet,
    IsNotNull,
    IsNull,
    Like,
    Not,
    Or,
    TrueExpr,
    conjoin,
    conjuncts,
    rewrite_for_codes,
)
from .query import (
    AggFunc,
    AggregateQuery,
    AggregateSpec,
    JoinCondition,
    Query,
    QueryError,
    SPJQuery,
)
from .sampling import SubsampleResult, variational_subsample
from .plan import PlanNode, QueryPlan, q_error
from .schema import INT_NULL, Column, ColumnType, ForeignKey, SchemaError, TableSchema
from .sql import SQLSyntaxError, split_explain, sql
from .statistics import (
    CategoricalStats,
    NumericStats,
    TableStats,
    compute_database_stats,
    compute_table_stats,
    estimate_ndv,
    estimate_predicate_selectivity,
    estimated_join_cardinality,
)
from .table import DictEncoded, Table

__all__ = [
    "AggFunc",
    "AggregateQuery",
    "AggregateResult",
    "AggregateSpec",
    "And",
    "Between",
    "CategoricalStats",
    "Column",
    "ColumnType",
    "Comparison",
    "Database",
    "DictEncoded",
    "ExecutionError",
    "Expression",
    "ExpressionError",
    "FalseExpr",
    "ForeignKey",
    "INT_NULL",
    "InSet",
    "IsNotNull",
    "IsNull",
    "JoinCondition",
    "Like",
    "Not",
    "NumericStats",
    "Or",
    "PlanNode",
    "Query",
    "QueryPlan",
    "QueryError",
    "QueryStats",
    "ResultSet",
    "SPJQuery",
    "SQLSyntaxError",
    "SchemaError",
    "SubsampleResult",
    "Table",
    "TableSchema",
    "TableStats",
    "TimedExecution",
    "TrueExpr",
    "compute_database_stats",
    "compute_table_stats",
    "conjoin",
    "conjuncts",
    "estimate_ndv",
    "estimate_predicate_selectivity",
    "estimated_join_cardinality",
    "execute",
    "execute_aggregate",
    "explain",
    "q_error",
    "rewrite_for_codes",
    "split_explain",
    "sql",
    "timed_execute",
    "variational_subsample",
]
