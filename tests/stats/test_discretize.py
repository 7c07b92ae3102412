"""Unit tests for binning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import discretize_column, equal_frequency_bins, equal_width_bins
from repro.stats.discretize import MISSING_BIN, suggest_bin_count
from repro.table.column import CategoricalColumn, NumericColumn


class TestSuggestBinCount:
    def test_sturges(self):
        assert suggest_bin_count(1) == 1
        assert suggest_bin_count(100) == 8  # ceil(log2(100)+1)
        assert suggest_bin_count(1024) == 11

    def test_cap(self):
        assert suggest_bin_count(2**40) == 32


class TestEqualWidth:
    def test_even_spread(self):
        codes = equal_width_bins(np.asarray([0.0, 1.0, 2.0, 3.0]), 2)
        assert codes.tolist() == [0, 0, 1, 1]

    def test_max_value_lands_in_last_bin(self):
        codes = equal_width_bins(np.linspace(0, 1, 11), 5)
        assert codes.max() == 4

    def test_constant_column_single_bin(self):
        codes = equal_width_bins(np.asarray([7.0, 7.0]), 4)
        assert codes.tolist() == [0, 0]

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            equal_width_bins(np.asarray([1.0, np.nan]), 2)

    def test_bad_bin_count_rejected(self):
        with pytest.raises(ValueError):
            equal_width_bins(np.asarray([1.0]), 0)


class TestEqualFrequency:
    def test_balanced_counts(self, rng):
        values = rng.normal(0, 1, 1000)
        codes = equal_frequency_bins(values, 4)
        counts = np.bincount(codes)
        assert counts.size == 4
        assert counts.min() > 200  # roughly 250 each

    def test_ties_merge_edges(self):
        values = np.asarray([1.0] * 90 + [2.0] * 10)
        codes = equal_frequency_bins(values, 4)
        # Quantile edges collapse onto 1.0; only 2 effective bins remain.
        assert np.unique(codes).size <= 2

    def test_empty_input(self):
        assert equal_frequency_bins(np.empty(0), 3).size == 0


class TestDiscretizeColumn:
    def test_categorical_passthrough(self):
        column = CategoricalColumn.from_labels("c", ["a", "b", None, "a"])
        codes = discretize_column(column)
        assert codes.tolist() == [0, 1, MISSING_BIN, 0]

    def test_numeric_missing_marked(self):
        column = NumericColumn("x", [1.0, np.nan, 3.0, 4.0, 5.0])
        codes = discretize_column(column, n_bins=2)
        assert codes[1] == MISSING_BIN
        assert (codes[[0, 2, 3, 4]] >= 0).all()

    def test_all_missing_column(self):
        column = NumericColumn("x", [np.nan, np.nan])
        assert (discretize_column(column) == MISSING_BIN).all()

    def test_equal_width_option(self, rng):
        column = NumericColumn("x", rng.normal(0, 1, 300))
        ef = discretize_column(column, n_bins=8, equal_frequency=True)
        ew = discretize_column(column, n_bins=8, equal_frequency=False)
        # Equal-frequency bins are more balanced than equal-width bins
        # on Gaussian data.
        assert np.bincount(ef).std() < np.bincount(ew).std()


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=-100, max_value=100, allow_nan=False),
        min_size=1,
        max_size=80,
    ),
    n_bins=st.integers(min_value=1, max_value=12),
)
def test_binning_codes_always_in_range(values, n_bins):
    array = np.asarray(values)
    for scheme in (equal_width_bins, equal_frequency_bins):
        codes = scheme(array, n_bins)
        assert codes.shape == array.shape
        assert codes.min(initial=0) >= 0
        assert codes.max(initial=0) < n_bins
