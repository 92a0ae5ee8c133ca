"""Unit tests for repro.db.expressions."""

import numpy as np
import pytest

from repro.db import (
    And,
    Between,
    Comparison,
    ExpressionError,
    InSet,
    IsNotNull,
    IsNull,
    Like,
    Not,
    Or,
    TrueExpr,
    conjoin,
    conjuncts,
)


@pytest.fixture
def ctx():
    return {
        "t.year": np.asarray([1999, 2005, 2010, 2020]),
        "t.rating": np.asarray([7.1, 8.2, np.nan, 9.0]),
        "t.genre": np.asarray(["drama", "action", "drama", ""], dtype=object),
    }


class TestComparison:
    def test_numeric_ops(self, ctx):
        assert list(Comparison("t.year", ">", 2005).evaluate(ctx)) == [False, False, True, True]
        assert list(Comparison("t.year", "=", 2005).evaluate(ctx)) == [False, True, False, False]
        assert list(Comparison("t.year", "!=", 2005).evaluate(ctx)) == [True, False, True, True]
        assert list(Comparison("t.year", "<=", 2005).evaluate(ctx)) == [True, True, False, False]

    def test_string_comparison(self, ctx):
        mask = Comparison("t.genre", "=", "drama").evaluate(ctx)
        assert list(mask) == [True, False, True, False]

    def test_bad_operator(self):
        with pytest.raises(ExpressionError):
            Comparison("t.year", "~", 2000)

    def test_bare_name_resolves_unambiguously(self, ctx):
        mask = Comparison("year", ">", 2009).evaluate(ctx)
        assert list(mask) == [False, False, True, True]

    def test_unknown_ref(self, ctx):
        with pytest.raises(ExpressionError, match="unknown column"):
            Comparison("t.bogus", "=", 1).evaluate(ctx)

    def test_to_sql_quotes_strings(self):
        assert Comparison("t.genre", "=", "o'brien").to_sql() == "t.genre = 'o''brien'"


class TestBetween:
    def test_inclusive(self, ctx):
        mask = Between("t.year", 2005, 2010).evaluate(ctx)
        assert list(mask) == [False, True, True, False]

    def test_sql(self):
        assert Between("t.year", 1, 2).to_sql() == "t.year BETWEEN 1 AND 2"


class TestInSet:
    def test_membership(self, ctx):
        mask = InSet("t.genre", ["drama", "scifi"]).evaluate(ctx)
        assert list(mask) == [True, False, True, False]

    def test_numeric_membership(self, ctx):
        mask = InSet("t.year", [1999, 2020]).evaluate(ctx)
        assert list(mask) == [True, False, False, True]

    def test_empty_rejected(self):
        with pytest.raises(ExpressionError):
            InSet("t.genre", [])

    def test_values_deduplicated_and_sorted(self):
        expr = InSet("t.g", ["b", "a", "b"])
        assert expr.values == ("a", "b")

    def test_equality_and_hash(self):
        assert InSet("t.g", ["a", "b"]) == InSet("t.g", ["b", "a"])
        assert hash(InSet("t.g", ["a"])) == hash(InSet("t.g", ["a"]))


class TestLike:
    def test_percent_wildcard(self, ctx):
        mask = Like("t.genre", "dra%").evaluate(ctx)
        assert list(mask) == [True, False, True, False]

    def test_underscore_wildcard(self, ctx):
        mask = Like("t.genre", "_rama").evaluate(ctx)
        assert list(mask) == [True, False, True, False]

    def test_no_wildcard_is_exact(self, ctx):
        mask = Like("t.genre", "drama").evaluate(ctx)
        assert list(mask) == [True, False, True, False]
        assert not Like("t.genre", "dram").evaluate(ctx).any()


class TestNulls:
    def test_is_null_float(self, ctx):
        assert list(IsNull("t.rating").evaluate(ctx)) == [False, False, True, False]

    def test_is_null_str(self, ctx):
        assert list(IsNull("t.genre").evaluate(ctx)) == [False, False, False, True]

    def test_is_not_null(self, ctx):
        assert list(IsNotNull("t.rating").evaluate(ctx)) == [True, True, False, True]


class TestBooleanOperators:
    def test_and(self, ctx):
        expr = And([Comparison("t.year", ">", 2000), Comparison("t.genre", "=", "drama")])
        assert list(expr.evaluate(ctx)) == [False, False, True, False]

    def test_or(self, ctx):
        expr = Or([Comparison("t.year", "<", 2000), Comparison("t.year", ">", 2015)])
        assert list(expr.evaluate(ctx)) == [True, False, False, True]

    def test_not(self, ctx):
        # The last genre is NULL: NOT of an unknown stays unknown.
        expr = Not(Comparison("t.genre", "=", "drama"))
        assert list(expr.evaluate(ctx)) == [False, True, False, False]

    def test_operator_overloads(self, ctx):
        expr = Comparison("t.year", ">", 2000) & ~Comparison("t.genre", "=", "drama")
        assert list(expr.evaluate(ctx)) == [False, True, False, False]

    def test_empty_and_rejected(self):
        with pytest.raises(ExpressionError):
            And([])

    def test_true_expr(self, ctx):
        assert TrueExpr().evaluate(ctx).all()

    def test_columns_deduplicated(self):
        expr = And([Comparison("t.a", ">", 1), Comparison("t.a", "<", 5), Comparison("t.b", "=", 1)])
        assert expr.columns() == ["t.a", "t.b"]


class TestConjunctHelpers:
    def test_conjuncts_flattens_nested_and(self):
        expr = And([And([Comparison("t.a", ">", 1), Comparison("t.b", ">", 2)]), Comparison("t.c", ">", 3)])
        assert len(conjuncts(expr)) == 3

    def test_conjuncts_of_true_is_empty(self):
        assert conjuncts(TrueExpr()) == []

    def test_conjoin_empty_is_true(self):
        assert isinstance(conjoin([]), TrueExpr)

    def test_conjoin_single_passthrough(self):
        part = Comparison("t.a", "=", 1)
        assert conjoin([part]) is part

    def test_conjoin_drops_true(self):
        part = Comparison("t.a", "=", 1)
        assert conjoin([TrueExpr(), part]) is part

    def test_conjoin_multiple(self):
        expr = conjoin([Comparison("t.a", "=", 1), Comparison("t.b", "=", 2)])
        assert isinstance(expr, And)


class TestTokens:
    def test_comparison_tokens_include_column_and_value(self):
        tokens = Comparison("t.year", ">", 2000).tokens()
        assert "pred:t.year>" in tokens
        assert "val:t.year=2000" in tokens

    def test_inset_tokens_one_per_value(self):
        tokens = InSet("t.g", ["a", "b"]).tokens()
        assert "val:t.g=a" in tokens and "val:t.g=b" in tokens
