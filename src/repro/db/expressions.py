"""Predicate expression AST with vectorized evaluation.

Predicates are evaluated against a *row context*: a mapping from qualified
column reference ``"table.column"`` (or bare ``"column"`` for single-table
queries) to a numpy array of values, all of the same length. The executor
builds such contexts for base tables and join intermediates.

Supported forms::

    Comparison(col, op, value)      op in {=, !=, <, <=, >, >=}
    Between(col, low, high)         inclusive range
    InSet(col, {v1, v2, ...})
    Like(col, pattern)              SQL LIKE with % and _
    IsNull(col) / IsNotNull(col)
    And(p1, p2, ...), Or(p1, p2, ...), Not(p)
    TrueExpr()                      matches everything

Every node renders back to SQL text via ``to_sql()`` and exposes
``columns()`` (the column refs it touches) and ``tokens()`` (structural
tokens used by the embedding substrate). An atom over a NULL (``INT_NULL``,
NaN, ``""``) is neither true nor false (``unknown``), as in SQL.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from .schema import INT_NULL

Value = Union[int, float, str]

_COMPARATORS = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


class ExpressionError(ValueError):
    """Raised for malformed predicates or evaluation against a bad context."""


def _sql_literal(value: Value) -> str:
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    if isinstance(value, float):
        return repr(float(value))
    return str(int(value))


def _context_column(context: Mapping[str, np.ndarray], ref: str) -> np.ndarray:
    if ref in context:
        return context[ref]
    # Allow bare-name lookup when the qualified ref is unambiguous.
    if "." not in ref:
        matches = [key for key in context if key.endswith("." + ref)]
        if len(matches) == 1:
            return context[matches[0]]
        if len(matches) > 1:
            raise ExpressionError(f"ambiguous column reference {ref!r}: {matches}")
    raise ExpressionError(f"unknown column reference {ref!r}; context has {sorted(context)}")


def null_mask(array: np.ndarray) -> np.ndarray:
    """The rows of a context column that hold NULL."""
    kind = array.dtype.kind
    if kind == "O":
        return np.asarray(array == "", dtype=bool)
    return np.isnan(array) if kind == "f" else array == INT_NULL


class Expression:
    """Base class for all predicate nodes."""

    def evaluate(self, context: Mapping[str, np.ndarray]) -> np.ndarray:
        """Boolean mask over the context rows: where the predicate is true."""
        raise NotImplementedError

    def unknown(self, context: Mapping[str, np.ndarray]) -> np.ndarray:
        """Where the predicate is neither true nor false (a NULL operand)."""
        return np.zeros(len(next(iter(context.values()))) if context else 0, dtype=bool)

    def to_sql(self) -> str:
        raise NotImplementedError

    def columns(self) -> list[str]:
        """Column references this predicate touches (with duplicates removed)."""
        raise NotImplementedError

    def tokens(self) -> list[str]:
        """Structural tokens for the embedding substrate."""
        raise NotImplementedError

    # Convenience combinators -------------------------------------------------
    def __and__(self, other: "Expression") -> "And":
        return And([self, other])

    def __or__(self, other: "Expression") -> "Or":
        return Or([self, other])

    def __invert__(self) -> "Not":
        return Not(self)


@dataclass(frozen=True)
class TrueExpr(Expression):
    """A predicate satisfied by every row."""

    def evaluate(self, context: Mapping[str, np.ndarray]) -> np.ndarray:
        n = len(next(iter(context.values()))) if context else 0
        return np.ones(n, dtype=bool)

    def to_sql(self) -> str:
        return "TRUE"

    def columns(self) -> list[str]:
        return []

    def tokens(self) -> list[str]:
        return ["true"]


@dataclass(frozen=True)
class FalseExpr(Expression):
    """A predicate satisfied by no row.

    Produced by :func:`rewrite_for_codes` when a literal provably falls
    outside a column's dictionary (e.g. ``genre = 'nope'`` against a
    dictionary without ``'nope'``) — the scan can then skip every block.
    """

    def evaluate(self, context: Mapping[str, np.ndarray]) -> np.ndarray:
        n = len(next(iter(context.values()))) if context else 0
        return np.zeros(n, dtype=bool)

    def to_sql(self) -> str:
        return "FALSE"

    def columns(self) -> list[str]:
        return []

    def tokens(self) -> list[str]:
        return ["false"]


class _OneColumn(Expression):
    """An atom over ``self.column``: unknown where the column is NULL."""

    def unknown(self, context: Mapping[str, np.ndarray]) -> np.ndarray:
        return null_mask(_context_column(context, self.column))


@dataclass(frozen=True)
class Comparison(_OneColumn):
    column: str
    op: str
    value: Value

    def __post_init__(self) -> None:
        if self.op not in _COMPARATORS:
            raise ExpressionError(f"unsupported comparison operator {self.op!r}")

    def evaluate(self, context: Mapping[str, np.ndarray]) -> np.ndarray:
        array = _context_column(context, self.column)
        compare = _COMPARATORS[self.op]
        if array.dtype == object:
            values = np.asarray([str(v) for v in array], dtype="U")
            result = compare(values, str(self.value)) & (values != "")
        else:
            with np.errstate(invalid="ignore"):
                result = compare(array, self.value)
            kind, wide = array.dtype.kind, array.dtype.itemsize == 8
            if kind == "i" and wide and self.op in ("<", "<=", "!="):
                result &= array != INT_NULL  # the least int64 (codes are int32)
            elif kind == "f" and self.op == "!=":
                result &= ~np.isnan(array)  # NaN differs from everything
        return np.asarray(result, dtype=bool)

    def to_sql(self) -> str:
        return f"{self.column} {self.op} {_sql_literal(self.value)}"

    def columns(self) -> list[str]:
        return [self.column]

    def tokens(self) -> list[str]:
        return [f"pred:{self.column}{self.op}", f"val:{self.column}={self.value}"]


@dataclass(frozen=True)
class Between(_OneColumn):
    column: str
    low: Value
    high: Value

    def evaluate(self, context: Mapping[str, np.ndarray]) -> np.ndarray:
        array = _context_column(context, self.column)
        if array.dtype == object:
            values = np.asarray([str(v) for v in array], dtype="U")
            return (values >= str(self.low)) & (values <= str(self.high)) & (values != "")
        with np.errstate(invalid="ignore"):
            return np.asarray((array >= self.low) & (array <= self.high), dtype=bool)

    def to_sql(self) -> str:
        return f"{self.column} BETWEEN {_sql_literal(self.low)} AND {_sql_literal(self.high)}"

    def columns(self) -> list[str]:
        return [self.column]

    def tokens(self) -> list[str]:
        return [
            f"pred:{self.column}between",
            f"val:{self.column}>={self.low}",
            f"val:{self.column}<={self.high}",
        ]


class InSet(_OneColumn):
    """``column IN (v1, v2, ...)``."""

    def __init__(self, column: str, values: Iterable[Value]) -> None:
        self.column = column
        self.values = tuple(sorted(set(values), key=str))
        if not self.values:
            raise ExpressionError(f"IN-set for {column!r} must be non-empty")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, InSet)
            and self.column == other.column
            and self.values == other.values
        )

    def __hash__(self) -> int:
        return hash((self.column, self.values))

    def evaluate(self, context: Mapping[str, np.ndarray]) -> np.ndarray:
        array = _context_column(context, self.column)
        if array.dtype == object:
            wanted = {str(v) for v in self.values} - {""}
            return np.asarray([str(v) in wanted for v in array], dtype=bool)
        return np.isin(array, np.asarray(self.values))

    def to_sql(self) -> str:
        inner = ", ".join(_sql_literal(v) for v in self.values)
        return f"{self.column} IN ({inner})"

    def columns(self) -> list[str]:
        return [self.column]

    def tokens(self) -> list[str]:
        return [f"pred:{self.column}in"] + [f"val:{self.column}={v}" for v in self.values]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"InSet({self.column!r}, {self.values!r})"


@dataclass(frozen=True)
class Like(_OneColumn):
    """SQL LIKE: ``%`` matches any run, ``_`` any single character."""

    column: str
    pattern: str

    def _regex(self) -> re.Pattern:
        # re.escape leaves % and _ untouched (they are not regex-special),
        # so the wildcard substitution happens on the escaped text directly.
        escaped = re.escape(self.pattern)
        regex = escaped.replace("%", ".*").replace("_", ".")
        return re.compile(f"^{regex}$")

    def evaluate(self, context: Mapping[str, np.ndarray]) -> np.ndarray:
        array = _context_column(context, self.column)
        regex = self._regex()
        return np.asarray(
            [value != "" and bool(regex.match(str(value))) for value in array], dtype=bool
        )

    def to_sql(self) -> str:
        return f"{self.column} LIKE {_sql_literal(self.pattern)}"

    def columns(self) -> list[str]:
        return [self.column]

    def tokens(self) -> list[str]:
        return [f"pred:{self.column}like", f"val:{self.column}~{self.pattern}"]


@dataclass(frozen=True)
class IsNull(Expression):
    column: str

    def evaluate(self, context: Mapping[str, np.ndarray]) -> np.ndarray:
        return null_mask(_context_column(context, self.column))

    def to_sql(self) -> str:
        return f"{self.column} IS NULL"

    def columns(self) -> list[str]:
        return [self.column]

    def tokens(self) -> list[str]:
        return [f"pred:{self.column}isnull"]


@dataclass(frozen=True)
class IsNotNull(Expression):
    column: str

    def evaluate(self, context: Mapping[str, np.ndarray]) -> np.ndarray:
        return ~IsNull(self.column).evaluate(context)

    def to_sql(self) -> str:
        return f"{self.column} IS NOT NULL"

    def columns(self) -> list[str]:
        return [self.column]

    def tokens(self) -> list[str]:
        return [f"pred:{self.column}notnull"]


class And(Expression):
    def __init__(self, operands: Sequence[Expression]) -> None:
        if not operands:
            raise ExpressionError("AND needs at least one operand")
        self.operands = tuple(operands)

    def evaluate(self, context: Mapping[str, np.ndarray]) -> np.ndarray:
        result = self.operands[0].evaluate(context)
        for operand in self.operands[1:]:
            result = result & operand.evaluate(context)
        return result

    def unknown(self, context: Mapping[str, np.ndarray]) -> np.ndarray:
        unknown = [operand.unknown(context) for operand in self.operands]
        false = [~o.evaluate(context) & ~u for o, u in zip(self.operands, unknown)]
        return np.logical_or.reduce(unknown) & ~np.logical_or.reduce(false)

    def to_sql(self) -> str:
        return "(" + " AND ".join(op.to_sql() for op in self.operands) + ")"

    def columns(self) -> list[str]:
        seen: list[str] = []
        for operand in self.operands:
            for ref in operand.columns():
                if ref not in seen:
                    seen.append(ref)
        return seen

    def tokens(self) -> list[str]:
        tokens: list[str] = []
        for operand in self.operands:
            tokens.extend(operand.tokens())
        return tokens

    def __eq__(self, other: object) -> bool:
        return isinstance(other, And) and self.operands == other.operands

    def __hash__(self) -> int:
        return hash(("and", self.operands))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"And({list(self.operands)!r})"


class Or(Expression):
    def __init__(self, operands: Sequence[Expression]) -> None:
        if not operands:
            raise ExpressionError("OR needs at least one operand")
        self.operands = tuple(operands)

    def evaluate(self, context: Mapping[str, np.ndarray]) -> np.ndarray:
        result = self.operands[0].evaluate(context)
        for operand in self.operands[1:]:
            result = result | operand.evaluate(context)
        return result

    def unknown(self, context: Mapping[str, np.ndarray]) -> np.ndarray:
        unknown = [operand.unknown(context) for operand in self.operands]
        return np.logical_or.reduce(unknown) & ~self.evaluate(context)

    def to_sql(self) -> str:
        return "(" + " OR ".join(op.to_sql() for op in self.operands) + ")"

    def columns(self) -> list[str]:
        seen: list[str] = []
        for operand in self.operands:
            for ref in operand.columns():
                if ref not in seen:
                    seen.append(ref)
        return seen

    def tokens(self) -> list[str]:
        tokens = ["or"]
        for operand in self.operands:
            tokens.extend(operand.tokens())
        return tokens

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Or) and self.operands == other.operands

    def __hash__(self) -> int:
        return hash(("or", self.operands))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Or({list(self.operands)!r})"


@dataclass(frozen=True)
class Not(Expression):
    operand: Expression

    def evaluate(self, context: Mapping[str, np.ndarray]) -> np.ndarray:
        return ~self.operand.evaluate(context) & ~self.operand.unknown(context)

    def unknown(self, context: Mapping[str, np.ndarray]) -> np.ndarray:
        return self.operand.unknown(context)

    def to_sql(self) -> str:
        return f"NOT ({self.operand.to_sql()})"

    def columns(self) -> list[str]:
        return self.operand.columns()

    def tokens(self) -> list[str]:
        return ["not"] + self.operand.tokens()


def conjuncts(expression: Expression) -> list[Expression]:
    """Flatten nested ANDs into a list of conjuncts."""
    if isinstance(expression, And):
        result: list[Expression] = []
        for operand in expression.operands:
            result.extend(conjuncts(operand))
        return result
    if isinstance(expression, TrueExpr):
        return []
    return [expression]


def conjoin(parts: Sequence[Expression]) -> Expression:
    """Combine predicates with AND, simplifying the 0- and 1-element cases."""
    parts = [p for p in parts if not isinstance(p, TrueExpr)]
    if not parts:
        return TrueExpr()
    if len(parts) == 1:
        return parts[0]
    return And(parts)


# --------------------------------------------------------------------- #
# code-space rewriting (late materialization)
# --------------------------------------------------------------------- #

def _resolve_ref(ref: str, refs) -> Optional[str]:
    """Resolve a possibly-bare ref against the context's qualified refs.

    Returns the qualified ref, or None when the ref is unknown or
    ambiguous (callers then fall back to the decoded evaluation path,
    which reports the error with identical wording).
    """
    if ref in refs:
        return ref
    if "." not in ref:
        matches = [key for key in refs if key.endswith("." + ref)]
        if len(matches) == 1:
            return matches[0]
    return None


def first_value_code(dictionary: Optional[np.ndarray]) -> int:
    """1 when a dictionary's first entry is NULL (``""`` sorts first), else 0."""
    return int(dictionary is not None and len(dictionary) > 0 and dictionary[0] == "")


def _dictionary_code(dictionary: np.ndarray, value: str) -> Optional[int]:
    """The code of ``value`` in a sorted dictionary, or None when absent."""
    index = int(np.searchsorted(dictionary, value))
    if index < len(dictionary) and str(dictionary[index]) == value:
        return index
    return None


def _rewrite_atom(node: Expression, dictionary: np.ndarray) -> Expression:
    """Rewrite one single-column atom into code space.

    The dictionary is sorted, so code order equals string order and every
    string comparison maps to an integer comparison on the codes — range
    bounds come from ``searchsorted``, equality from exact lookup.
    """
    n = len(dictionary)
    if isinstance(node, Comparison):
        value = str(node.value)
        if node.op == "=":
            code = _dictionary_code(dictionary, value)
            return FalseExpr() if code is None else Comparison(node.column, "=", code)
        if node.op == "!=":
            code = _dictionary_code(dictionary, value)
            return TrueExpr() if code is None else Comparison(node.column, "!=", code)
        if node.op == "<":
            bound = int(np.searchsorted(dictionary, value, side="left"))
            return FalseExpr() if bound == 0 else Comparison(node.column, "<", bound)
        if node.op == "<=":
            bound = int(np.searchsorted(dictionary, value, side="right"))
            return FalseExpr() if bound == 0 else Comparison(node.column, "<", bound)
        if node.op == ">":
            bound = int(np.searchsorted(dictionary, value, side="right"))
            return FalseExpr() if bound >= n else Comparison(node.column, ">=", bound)
        # ">="
        bound = int(np.searchsorted(dictionary, value, side="left"))
        return FalseExpr() if bound >= n else Comparison(node.column, ">=", bound)
    if isinstance(node, Between):
        low = int(np.searchsorted(dictionary, str(node.low), side="left"))
        high = int(np.searchsorted(dictionary, str(node.high), side="right")) - 1
        if low > high:
            return FalseExpr()
        return Between(node.column, low, high)
    if isinstance(node, InSet):
        codes = []
        for value in node.values:
            code = _dictionary_code(dictionary, str(value))
            if code is not None:
                codes.append(code)
        return FalseExpr() if not codes else InSet(node.column, codes)
    if isinstance(node, Like):
        regex = node._regex()
        codes = [
            index for index in range(n) if regex.match(str(dictionary[index]))
        ]
        if not codes:
            return FalseExpr()
        if len(codes) == n:
            return TrueExpr()
        return InSet(node.column, codes)
    if isinstance(node, IsNull):
        # STR NULL is the empty string — an ordinary dictionary entry.
        code = _dictionary_code(dictionary, "")
        return FalseExpr() if code is None else Comparison(node.column, "=", code)
    if isinstance(node, IsNotNull):
        code = _dictionary_code(dictionary, "")
        return TrueExpr() if code is None else Comparison(node.column, "!=", code)
    raise ExpressionError(f"cannot rewrite {type(node).__name__} into code space")


def rewrite_for_codes(
    expression: Expression,
    dictionaries: Mapping[str, np.ndarray],
    refs,
) -> Optional[Expression]:
    """Rewrite a predicate to evaluate against dictionary *codes*.

    ``dictionaries`` maps qualified column refs to their sorted
    dictionaries; ``refs`` is the full set of qualified refs the runtime
    context will contain (needed to resolve bare column names the same
    way evaluation does). Atoms on non-dictionary columns pass through
    unchanged — the runtime context holds their plain decoded arrays.

    Returns the rewritten expression, or ``None`` when any part cannot
    be rewritten safely (unknown node types, ambiguous bare refs) — the
    caller then evaluates the original predicate on decoded values.
    """
    if isinstance(expression, (TrueExpr, FalseExpr)):
        return expression
    if isinstance(expression, And):
        parts = [rewrite_for_codes(op, dictionaries, refs) for op in expression.operands]
        if any(part is None for part in parts):
            return None
        if any(isinstance(part, FalseExpr) for part in parts):
            return FalseExpr()
        kept = [part for part in parts if not isinstance(part, TrueExpr)]
        return conjoin(kept)
    if isinstance(expression, Or):
        parts = [rewrite_for_codes(op, dictionaries, refs) for op in expression.operands]
        if any(part is None for part in parts):
            return None
        if any(isinstance(part, TrueExpr) for part in parts):
            return TrueExpr()
        kept = [part for part in parts if not isinstance(part, FalseExpr)]
        if not kept:
            return FalseExpr()
        return kept[0] if len(kept) == 1 else Or(kept)
    if isinstance(expression, Not):
        inner = rewrite_for_codes(expression.operand, dictionaries, refs)
        if inner is None:
            return None
        if isinstance(inner, TrueExpr):
            return FalseExpr()
        if isinstance(inner, FalseExpr):
            return TrueExpr()
        return Not(inner)
    if isinstance(
        expression, (Comparison, Between, InSet, Like, IsNull, IsNotNull)
    ):
        resolved = _resolve_ref(expression.column, refs)
        if resolved is None:
            return None
        dictionary = dictionaries.get(resolved)
        if dictionary is None:
            return expression
        if first_value_code(dictionary) and not isinstance(expression, (IsNull, IsNotNull)):
            return None  # code 0 is NULL, which only the decoded values say
        return _rewrite_atom(expression, dictionary)
    return None
