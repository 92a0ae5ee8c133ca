"""Unit tests for repro.db.schema."""

import numpy as np
import pytest

from repro.db import INT_NULL, Column, ColumnType, ForeignKey, SchemaError, TableSchema


class TestColumnType:
    def test_int_dtype(self):
        assert ColumnType.INT.dtype == np.dtype(np.int64)

    def test_float_dtype(self):
        assert ColumnType.FLOAT.dtype == np.dtype(np.float64)

    def test_str_dtype_is_object(self):
        assert ColumnType.STR.dtype == np.dtype(object)

    def test_numeric_flags(self):
        assert ColumnType.INT.is_numeric
        assert ColumnType.FLOAT.is_numeric
        assert not ColumnType.STR.is_numeric


class TestColumnCoercion:
    def test_int_coercion(self):
        column = Column("x", ColumnType.INT)
        arr = column.coerce([1, 2, 3])
        assert arr.dtype == np.int64
        assert list(arr) == [1, 2, 3]

    def test_float_coercion(self):
        column = Column("x", ColumnType.FLOAT)
        arr = column.coerce([1, 2.5])
        assert arr.dtype == np.float64
        assert arr[1] == 2.5

    def test_str_coercion_stringifies(self):
        column = Column("x", ColumnType.STR)
        arr = column.coerce(["a", 5, None])
        assert list(arr) == ["a", "5", ""]

    def test_int_coercion_failure(self):
        column = Column("x", ColumnType.INT)
        with pytest.raises(TypeError, match="x"):
            column.coerce(["not-a-number"])

    def test_float_coercion_failure(self):
        column = Column("x", ColumnType.FLOAT)
        with pytest.raises(TypeError):
            column.coerce(["oops"])


class TestNullMasks:
    def test_int_null_mask(self):
        column = Column("x", ColumnType.INT, nullable=True)
        arr = np.asarray([1, INT_NULL, 3], dtype=np.int64)
        assert list(column.null_mask(arr)) == [False, True, False]

    def test_float_null_mask(self):
        column = Column("x", ColumnType.FLOAT, nullable=True)
        arr = np.asarray([1.0, np.nan], dtype=np.float64)
        assert list(column.null_mask(arr)) == [False, True]

    def test_str_null_mask(self):
        column = Column("x", ColumnType.STR, nullable=True)
        arr = column.coerce(["a", ""])
        assert list(column.null_mask(arr)) == [False, True]


class TestTableSchema:
    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError, match="duplicate"):
            TableSchema("t", [Column("a", ColumnType.INT), Column("a", ColumnType.INT)])

    def test_empty_schema_rejected(self):
        with pytest.raises(SchemaError, match="at least one column"):
            TableSchema("t", [])

    def test_bad_primary_key_rejected(self):
        with pytest.raises(SchemaError, match="primary key"):
            TableSchema("t", [Column("a", ColumnType.INT)], primary_key="nope")

    def test_bad_foreign_key_rejected(self):
        with pytest.raises(SchemaError, match="foreign key"):
            TableSchema(
                "t",
                [Column("a", ColumnType.INT)],
                foreign_keys=(ForeignKey("missing", "other", "id"),),
            )

    def test_column_lookup(self, movie_schema):
        assert movie_schema.column("year").ctype is ColumnType.INT
        assert movie_schema.has_column("rating")
        assert not movie_schema.has_column("nope")

    def test_column_lookup_error_lists_available(self, movie_schema):
        with pytest.raises(SchemaError, match="rating"):
            movie_schema.column("missing")

    def test_column_names_order(self, movie_schema):
        assert movie_schema.column_names == ["id", "title", "year", "rating", "genre"]
