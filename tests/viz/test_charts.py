"""Unit tests for the text histogram and scatter plot."""

import numpy as np

from repro.table.column import CategoricalColumn, NumericColumn
from repro.viz.charts import text_histogram, text_scatter


class TestHistogram:
    def test_numeric_bins_and_counts(self, rng):
        column = NumericColumn("x", rng.normal(0, 1, 500))
        text = text_histogram(column)
        assert text.startswith("x (500 rows)")
        assert text.count("[") == 10
        # The counts at line ends sum to the row count.
        counts = [int(line.rsplit(" ", 1)[1]) for line in text.splitlines()[1:]]
        assert sum(counts) == 500

    def test_categorical_bars_sorted(self):
        column = CategoricalColumn.from_labels(
            "c", ["b"] * 5 + ["a"] * 3 + ["z"]
        )
        lines = text_histogram(column).splitlines()
        assert lines[1].strip().startswith("b")
        assert lines[2].strip().startswith("a")

    def test_missing_row_reported(self):
        column = NumericColumn("x", [1.0, 2.0, np.nan, 4.0])
        assert "∅ missing" in text_histogram(column)

    def test_constant_column(self):
        column = NumericColumn("x", [3.0, 3.0, 3.0])
        text = text_histogram(column)
        assert "3" in text

    def test_all_missing(self):
        column = NumericColumn("x", [np.nan, np.nan])
        assert "(all values missing)" in text_histogram(column)
        empty = CategoricalColumn.from_labels("c", [None, None])
        assert "(all values missing)" in text_histogram(empty)


class TestScatter:
    def test_grid_shape(self, rng):
        x = NumericColumn("x", rng.normal(0, 1, 200))
        y = NumericColumn("y", rng.normal(0, 1, 200))
        lines = text_scatter(x, y).splitlines()
        assert len(lines) == 1 + 18 + 2  # header + rows + axis + ranges
        assert all(len(line) == 51 for line in lines[1:19])

    def test_correlated_data_fills_diagonal(self, rng):
        base = np.linspace(0, 1, 300)
        x = NumericColumn("x", base)
        y = NumericColumn("y", base)
        text = text_scatter(x, y)
        rows = text.splitlines()[1:19]
        # Bottom-left and top-right are populated; top-left is empty.
        assert rows[0][-3:].strip() or rows[1][-3:].strip()
        assert not rows[0][1:5].strip()

    def test_incomplete_pairs_dropped(self):
        x = NumericColumn("x", [1.0, 2.0, np.nan])
        y = NumericColumn("y", [1.0, np.nan, 3.0])
        assert "(1 points)" in text_scatter(x, y)

    def test_no_complete_pairs(self):
        x = NumericColumn("x", [np.nan])
        y = NumericColumn("y", [1.0])
        assert "no complete pairs" in text_scatter(x, y)
