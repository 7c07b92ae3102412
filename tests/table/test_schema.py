"""Unit tests for schema inference and key detection."""

import numpy as np

from repro.table.column import CategoricalColumn, ColumnKind, NumericColumn
from repro.table.schema import detect_keys, infer_column
from repro.table.table import Table


class TestInferColumn:
    def test_numeric_strings_become_numeric(self):
        column = infer_column("x", ["1", "2.5", "3"])
        assert column.kind is ColumnKind.NUMERIC

    def test_mixed_strings_become_categorical(self):
        column = infer_column("x", ["1", "two", "3"])
        assert column.kind is ColumnKind.CATEGORICAL

    def test_binary_numeric_stays_categorical(self):
        # 0/1 flags read from CSV are flags, not measurements.
        column = infer_column("flag", ["0", "1", "0", "1"])
        assert column.kind is ColumnKind.CATEGORICAL

    def test_three_valued_numeric_is_numeric(self):
        column = infer_column("rating", ["1", "2", "3", "1"])
        assert column.kind is ColumnKind.NUMERIC

    def test_all_missing_becomes_categorical(self):
        column = infer_column("x", ["", "NA", None])
        assert column.kind is ColumnKind.CATEGORICAL
        assert column.n_missing == 3

    def test_missing_cells_tolerated_in_numeric(self):
        column = infer_column("x", ["1", "", "3", "NA"])
        assert column.kind is ColumnKind.NUMERIC
        assert column.n_missing == 2

    def test_forced_kind_wins(self):
        column = infer_column("x", ["1", "2", "3"], ColumnKind.CATEGORICAL)
        assert column.kind is ColumnKind.CATEGORICAL
        column = infer_column("x", ["a", "b"], ColumnKind.NUMERIC)
        assert column.kind is ColumnKind.NUMERIC
        assert column.n_missing == 2


class TestDetectKeys:
    def test_all_unique_column_is_key(self):
        table = Table(
            "t",
            [
                CategoricalColumn.from_labels("code", ["a", "b", "c"]),
                NumericColumn("v", [1.0, 1.0, 2.0]),
            ],
        )
        assert detect_keys(table) == ("code",)

    def test_name_hint_with_near_uniqueness(self):
        # 97% distinct + "_id" suffix: flagged even with a few duplicates.
        labels = [f"u{i}" for i in range(99)] + ["u0"]
        table = Table(
            "t",
            [
                CategoricalColumn.from_labels("user_id", labels),
                NumericColumn("v", np.zeros(100)),
            ],
        )
        assert "user_id" in detect_keys(table)

    def test_low_cardinality_id_not_flagged(self):
        table = Table(
            "t",
            [
                CategoricalColumn.from_labels("grid", ["a", "a", "b", "b"]),
                NumericColumn("v", [1.0, 2.0, 3.0, 4.0]),
            ],
        )
        # "grid" ends in "id" but is 50% distinct: not a key.
        assert "grid" not in detect_keys(table)

    def test_column_with_missing_not_unique_key(self):
        table = Table(
            "t",
            [
                CategoricalColumn.from_labels("c", ["a", "b", None]),
                NumericColumn("v", [1.0, 2.0, 3.0]),
            ],
        )
        assert "c" not in detect_keys(table)
