"""Unit tests for typed columns and their missing-value semantics."""

import numpy as np
import pytest

from oracles import is_unique_key
from repro.table.column import (
    CategoricalColumn,
    ColumnKind,
    NumericColumn,
    _parse_float,
)


class TestNumericColumn:
    def test_basic_construction(self):
        column = NumericColumn("age", [1.0, 2.0, 3.0])
        assert column.name == "age"
        assert column.kind is ColumnKind.NUMERIC
        assert len(column) == 3
        assert column.n_missing == 0

    def test_nan_becomes_missing(self):
        column = NumericColumn("x", [1.0, np.nan, 3.0])
        assert column.n_missing == 1
        assert column.missing_mask.tolist() == [False, True, False]
        assert column.value_at(1) is None
        assert column.value_at(0) == 1.0

    def test_explicit_mask_overrides_payload(self):
        column = NumericColumn("x", [1.0, 2.0, 3.0], missing=[False, True, False])
        assert column.n_missing == 1
        # The masked cell is stored as NaN so accidental use poisons math.
        assert np.isnan(column.values[1])

    def test_mask_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            NumericColumn("x", [1.0, 2.0], missing=[True])

    def test_from_cells_parses_strings_and_tokens(self):
        column = NumericColumn.from_cells("x", ["1.5", "NA", "", "2", None, "oops"])
        assert column.n_missing == 4
        assert column.value_at(0) == 1.5
        assert column.value_at(3) == 2.0

    def test_statistics_ignore_missing(self):
        column = NumericColumn("x", [1.0, np.nan, 3.0, 5.0])
        assert column.min() == 1.0
        assert column.max() == 5.0
        assert column.mean() == 3.0
        assert column.median() == 3.0

    def test_statistics_of_all_missing_are_nan(self):
        column = NumericColumn("x", [np.nan, np.nan])
        assert np.isnan(column.mean())
        assert np.isnan(column.min())

    def test_take_reorders_and_repeats(self):
        column = NumericColumn("x", [10.0, 20.0, 30.0])
        taken = column.take(np.asarray([2, 0, 0]))
        assert taken.values.tolist() == [30.0, 10.0, 10.0]

    def test_filter_length_mismatch_rejected(self):
        column = NumericColumn("x", [1.0, 2.0])
        with pytest.raises(ValueError):
            column.filter(np.asarray([True]))

    def test_values_are_read_only(self):
        column = NumericColumn("x", [1.0, 2.0])
        with pytest.raises(ValueError):
            column.values[0] = 99.0

    def test_slice_shares_the_validated_arrays(self):
        column = NumericColumn("x", [1.0, np.nan, 3.0, 4.0])
        sliced = column.slice(1, 3)
        assert sliced.name == "x" and len(sliced) == 2
        assert np.shares_memory(sliced.values, column.values)
        assert np.shares_memory(sliced.missing_mask, column.missing_mask)
        assert sliced.missing_mask.tolist() == [True, False]
        assert sliced.value_at(1) == 3.0

    def test_slice_is_read_only(self):
        sliced = NumericColumn("x", [1.0, 2.0, 3.0]).slice(0, 2)
        with pytest.raises(ValueError):
            sliced.values[0] = 99.0

    def test_n_distinct(self):
        column = NumericColumn("x", [1.0, 1.0, 2.0, np.nan])
        assert column.n_distinct() == 2

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            NumericColumn("", [1.0])

    def test_unique_key_detection(self):
        assert is_unique_key(NumericColumn("id", [1.0, 2.0, 3.0]))
        assert not is_unique_key(NumericColumn("x", [1.0, 1.0, 3.0]))
        assert not is_unique_key(NumericColumn("x", [1.0, np.nan]))


class TestCategoricalColumn:
    def test_from_labels(self):
        column = CategoricalColumn.from_labels("c", ["a", "b", "a", None])
        assert column.kind is ColumnKind.CATEGORICAL
        assert column.categories == ("a", "b")
        assert column.codes.tolist() == [0, 1, 0, -1]
        assert column.n_missing == 1

    def test_missing_tokens_recognized(self):
        column = CategoricalColumn.from_labels("c", ["x", "NA", "", "null", "?"])
        assert column.n_missing == 4

    def test_value_at(self):
        column = CategoricalColumn.from_labels("c", ["a", None])
        assert column.value_at(0) == "a"
        assert column.value_at(1) is None

    def test_code_of_unknown_label_raises(self):
        column = CategoricalColumn.from_labels("c", ["a"])
        with pytest.raises(KeyError):
            column.code_of("zz")

    def test_value_counts_sorted_by_frequency(self):
        column = CategoricalColumn.from_labels(
            "c", ["b", "a", "b", "b", "a", "c", None]
        )
        assert list(column.value_counts().items()) == [
            ("b", 3), ("a", 2), ("c", 1),
        ]

    def test_filter_keeps_parent_categories(self):
        column = CategoricalColumn.from_labels("c", ["a", "b", "c"])
        filtered = column.filter(np.asarray([True, False, False]))
        assert filtered.categories == ("a", "b", "c")
        assert filtered.n_distinct() == 1

    def test_compact_drops_unused_categories(self):
        column = CategoricalColumn.from_labels("c", ["a", "b", "c", None])
        filtered = column.filter(np.asarray([True, False, False, True]))
        compacted = filtered.compact()
        assert compacted.categories == ("a",)
        assert compacted.codes.tolist() == [0, -1]

    def test_duplicate_categories_rejected(self):
        with pytest.raises(ValueError):
            CategoricalColumn("c", [0, 1], ["a", "a"])

    def test_out_of_range_code_rejected(self):
        with pytest.raises(ValueError):
            CategoricalColumn("c", [0, 5], ["a", "b"])

    def test_negative_code_other_than_missing_rejected(self):
        with pytest.raises(ValueError):
            CategoricalColumn("c", [0, -2], ["a"])

    def test_labels_roundtrip(self):
        labels = ["x", None, "y", "x"]
        column = CategoricalColumn.from_labels("c", labels)
        assert column.labels() == labels

    def test_slice_shares_codes_and_categories(self):
        column = CategoricalColumn.from_labels("c", ["x", None, "y", "x"])
        sliced = column.slice(1, 4)
        assert sliced.labels() == [None, "y", "x"]
        assert sliced.categories == column.categories
        assert sliced.code_of("y") == column.code_of("y")
        assert np.shares_memory(sliced.codes, column.codes)
        assert sliced.n_missing == 1

    def test_empty_slice(self):
        sliced = CategoricalColumn.from_labels("c", ["x", "y"]).slice(1, 1)
        assert len(sliced) == 0 and sliced.labels() == []

    def test_unique_key_detection(self):
        assert is_unique_key(CategoricalColumn.from_labels("id", ["a", "b", "c"]))
        assert not is_unique_key(CategoricalColumn.from_labels("c", ["a", "a"]))


class TestParseFloat:
    @pytest.mark.parametrize(
        "cell,expected",
        [
            ("1.5", 1.5),
            ("-2", -2.0),
            ("  3.0  ", 3.0),
            ("1e3", 1000.0),
            (7, 7.0),
            (None, None),
            ("", None),
            ("NA", None),
            ("n/a", None),
            ("abc", None),
            (float("nan"), None),
            ("nan", None),
        ],
    )
    def test_parsing(self, cell, expected):
        assert _parse_float(cell) == expected
