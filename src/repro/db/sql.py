"""A small SQL parser for the query subset ASQP-RL works with.

Grammar (case-insensitive keywords)::

    query     := SELECT [DISTINCT] select_list FROM table_list
                 [WHERE predicate] [GROUP BY refs] [ORDER BY ref [DESC]]
                 [LIMIT int]
    select_list := '*' | item (',' item)*
    item      := ref | AGG '(' (ref | '*') ')' [AS name]
    predicate := disjunction of conjunctions with NOT and parentheses;
                 atoms are comparisons, BETWEEN, IN (...), LIKE,
                 IS [NOT] NULL, and equi-join conditions ref = ref.

Equi-join atoms between columns of *different* tables are lifted out of the
WHERE clause into :class:`~repro.db.query.JoinCondition` objects (only when
they appear as top-level conjuncts, which matches how the benchmark
workloads are written).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .expressions import (
    Between,
    Comparison,
    Expression,
    InSet,
    IsNotNull,
    IsNull,
    Like,
    Not,
    Or,
    TrueExpr,
    _context_column,
    conjoin,
    conjuncts,
    null_mask,
)
from .query import AggFunc, AggregateQuery, AggregateSpec, JoinCondition, QueryError, SPJQuery


class SQLSyntaxError(ValueError):
    """Raised when the SQL text cannot be parsed."""


_TOKEN_RE = re.compile(
    r"""
    \s*(
        '(?:[^']|'')*'            # string literal
      | -?\d+\.\d+(?:[eE][+-]?\d+)?   # float (optional sign/exponent)
      | -?\d+(?:[eE][+-]?\d+)?         # int / scientific

      | [A-Za-z_][A-Za-z_0-9]*(?:\.[A-Za-z_][A-Za-z_0-9]*)?   # ident / ref
      | <= | >= | != | <> | = | < | >
      | \( | \) | , | \*
    )
    """,
    re.VERBOSE,
)

_AGG_FUNCS = {f.value.lower(): f for f in AggFunc}


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    pos = 0
    text = text.strip().rstrip(";")
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if not match:
            raise SQLSyntaxError(f"cannot tokenize SQL at: {text[pos:pos + 30]!r}")
        tokens.append(match.group(1))
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[str]) -> None:
        self.tokens = tokens
        self.pos = 0

    # ---------------- token helpers ----------------
    def peek(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        token = self.peek()
        if token is None:
            raise SQLSyntaxError("unexpected end of SQL")
        self.pos += 1
        return token

    def expect_kw(self, keyword: str) -> None:
        token = self.next()
        if token.lower() != keyword:
            raise SQLSyntaxError(f"expected {keyword.upper()}, got {token!r}")

    def accept_kw(self, keyword: str) -> bool:
        if self.peek() is not None and self.peek().lower() == keyword:
            self.pos += 1
            return True
        return False

    def accept(self, literal: str) -> bool:
        if self.peek() == literal:
            self.pos += 1
            return True
        return False

    # ---------------- grammar ----------------
    def parse_query(self) -> Union[SPJQuery, AggregateQuery]:
        self.expect_kw("select")
        distinct = self.accept_kw("distinct")
        plain_refs, agg_specs, star = self._select_list()
        self.expect_kw("from")
        tables = self._table_list()

        predicate: Expression = TrueExpr()
        if self.accept_kw("where"):
            predicate = self._disjunction()

        group_by: list[str] = []
        if self.accept_kw("group"):
            self.expect_kw("by")
            group_by = self._ref_list()

        order_by: Optional[str] = None
        descending = False
        if self.accept_kw("order"):
            self.expect_kw("by")
            order_by = self._ref()
            if self.accept_kw("desc"):
                descending = True
            else:
                self.accept_kw("asc")

        limit: Optional[int] = None
        if self.accept_kw("limit"):
            token = self.next()
            if not token.isdigit():
                raise SQLSyntaxError(f"LIMIT expects an integer, got {token!r}")
            limit = int(token)

        if self.peek() is not None:
            raise SQLSyntaxError(f"trailing tokens: {self.tokens[self.pos:]}")

        joins, residual = _lift_joins(predicate, tables)

        if agg_specs:
            if order_by or limit or distinct or star:
                raise SQLSyntaxError(
                    "aggregate queries support only WHERE and GROUP BY modifiers"
                )
            if plain_refs and set(plain_refs) - set(group_by):
                raise SQLSyntaxError(
                    "non-aggregated select columns must appear in GROUP BY"
                )
            return AggregateQuery(
                tables=tuple(tables),
                aggregates=tuple(agg_specs),
                predicate=residual,
                joins=tuple(joins),
                group_by=tuple(group_by),
            )

        if group_by:
            raise SQLSyntaxError("GROUP BY without aggregates is not supported")
        return SPJQuery(
            tables=tuple(tables),
            predicate=residual,
            joins=tuple(joins),
            projection=() if star else tuple(plain_refs),
            order_by=order_by,
            descending=descending,
            limit=limit,
            distinct=distinct,
        )

    def _select_list(self) -> tuple[list[str], list[AggregateSpec], bool]:
        if self.accept("*"):
            return [], [], True
        refs: list[str] = []
        aggs: list[AggregateSpec] = []
        while True:
            token = self.peek()
            if token is not None and token.lower() in _AGG_FUNCS and self.tokens[
                self.pos + 1 : self.pos + 2
            ] == ["("]:
                func = _AGG_FUNCS[self.next().lower()]
                self.expect_token("(")
                column = None if self.accept("*") else self._ref()
                self.expect_token(")")
                alias = ""
                if self.accept_kw("as"):
                    alias = self.next()
                aggs.append(AggregateSpec(func=func, column=column, alias=alias))
            else:
                refs.append(self._ref())
            if not self.accept(","):
                break
        return refs, aggs, False

    def expect_token(self, literal: str) -> None:
        token = self.next()
        if token != literal:
            raise SQLSyntaxError(f"expected {literal!r}, got {token!r}")

    def _table_list(self) -> list[str]:
        tables = [self._ident()]
        while self.accept(","):
            tables.append(self._ident())
        return tables

    def _ref_list(self) -> list[str]:
        refs = [self._ref()]
        while self.accept(","):
            refs.append(self._ref())
        return refs

    def _ident(self) -> str:
        token = self.next()
        if not re.match(r"^[A-Za-z_][A-Za-z_0-9]*$", token):
            raise SQLSyntaxError(f"expected identifier, got {token!r}")
        return token

    def _ref(self) -> str:
        token = self.next()
        if not re.match(r"^[A-Za-z_][A-Za-z_0-9]*(\.[A-Za-z_][A-Za-z_0-9]*)?$", token):
            raise SQLSyntaxError(f"expected column reference, got {token!r}")
        return token

    # predicates ------------------------------------------------------
    def _disjunction(self) -> Expression:
        parts = [self._conjunction()]
        while self.accept_kw("or"):
            parts.append(self._conjunction())
        return parts[0] if len(parts) == 1 else Or(parts)

    def _conjunction(self) -> Expression:
        parts = [self._unary()]
        while self.accept_kw("and"):
            parts.append(self._unary())
        return conjoin(parts)

    def _unary(self) -> Expression:
        if self.accept_kw("not"):
            return Not(self._unary())
        if self.accept("("):
            inner = self._disjunction()
            self.expect_token(")")
            return inner
        return self._atom()

    def _atom(self) -> Expression:
        column = self._ref()
        token = self.peek()
        if token is None:
            raise SQLSyntaxError(f"dangling column {column!r} in predicate")

        if token.lower() == "between":
            self.next()
            low = self._literal()
            self.expect_kw("and")
            high = self._literal()
            return Between(column, low, high)
        if token.lower() == "in":
            self.next()
            self.expect_token("(")
            values = [self._literal()]
            while self.accept(","):
                values.append(self._literal())
            self.expect_token(")")
            return InSet(column, values)
        if token.lower() == "like":
            self.next()
            pattern = self._literal()
            if not isinstance(pattern, str):
                raise SQLSyntaxError("LIKE expects a string pattern")
            return Like(column, pattern)
        if token.lower() == "is":
            self.next()
            if self.accept_kw("not"):
                self.expect_kw("null")
                return IsNotNull(column)
            self.expect_kw("null")
            return IsNull(column)

        op = self.next()
        if op == "<>":
            op = "!="
        if op not in ("=", "!=", "<", "<=", ">", ">="):
            raise SQLSyntaxError(f"unsupported operator {op!r}")
        # Either a join condition (ref on the right) or a literal comparison.
        right = self.peek()
        if right is not None and re.match(
            r"^[A-Za-z_][A-Za-z_0-9]*\.[A-Za-z_][A-Za-z_0-9]*$", right
        ):
            self.next()
            if op != "=":
                raise SQLSyntaxError("only equi-joins between columns are supported")
            return _JoinAtom(column, right)
        return Comparison(column, op, self._literal())

    def _literal(self) -> Union[int, float, str]:
        token = self.next()
        if token.startswith("'"):
            return token[1:-1].replace("''", "'")
        if re.match(r"^-?\d+\.\d+(?:[eE][+-]?\d+)?$", token) or re.match(
            r"^-?\d+[eE][+-]?\d+$", token
        ):
            return float(token)
        if re.match(r"^-?\d+$", token):
            return int(token)
        raise SQLSyntaxError(f"expected literal, got {token!r}")


@dataclass(frozen=True)
class _JoinAtom(Expression):
    """A ``ref = ref`` atom.

    :func:`_lift_joins` turns a top-level one between two tables into a
    :class:`JoinCondition`; anywhere else (same table, under OR / NOT) it
    stays in the predicate and compares the two columns row by row.
    """

    column: str
    right_ref: str

    def evaluate(self, context):
        left = _context_column(context, self.column)
        right = _context_column(context, self.right_ref)
        return np.asarray(left == right, dtype=bool) & ~self.unknown(context)

    def unknown(self, context):
        return null_mask(_context_column(context, self.column)) | null_mask(
            _context_column(context, self.right_ref)
        )

    def to_sql(self) -> str:
        return f"{self.column} = {self.right_ref}"

    def columns(self) -> list[str]:
        return list(dict.fromkeys((self.column, self.right_ref)))

    def tokens(self) -> list[str]:
        return [f"pred:{self.column}={self.right_ref}"]


def _lift_joins(
    predicate: Expression, tables: list[str]
) -> tuple[list[JoinCondition], Expression]:
    joins: list[JoinCondition] = []
    rest: list[Expression] = []
    for part in conjuncts(predicate):
        if isinstance(part, _JoinAtom):
            left_table = part.column.split(".", 1)[0]
            right_table = part.right_ref.split(".", 1)[0]
            if left_table != right_table:
                joins.append(JoinCondition(part.column, part.right_ref))
                continue
        rest.append(part)
    return joins, conjoin(rest)


_EXPLAIN_RE = re.compile(r"^\s*explain(\s+analyze)?\s+", re.IGNORECASE)


def split_explain(text: str) -> tuple[str, bool, bool]:
    """Strip a leading ``EXPLAIN [ANALYZE]`` prefix from SQL text.

    Returns ``(rest, is_explain, is_analyze)``; the prefix itself is not
    part of the query grammar — callers route stripped text through
    :func:`sql` and hand the query to :func:`repro.db.executor.explain`.
    """
    match = _EXPLAIN_RE.match(text)
    if not match:
        return text, False, False
    return text[match.end():], True, bool(match.group(1))


def sql(text: str) -> Union[SPJQuery, AggregateQuery]:
    """Parse SQL text into an :class:`SPJQuery` or :class:`AggregateQuery`.

    >>> sql("SELECT * FROM movies WHERE year > 2000 LIMIT 5").limit
    5
    """
    tokens = _tokenize(text)
    if not tokens:
        raise SQLSyntaxError("empty SQL text")
    try:
        return _Parser(tokens).parse_query()
    except QueryError as exc:
        raise SQLSyntaxError(str(exc)) from exc
