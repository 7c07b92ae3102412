"""Unit and property tests for mutual information between columns."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import column_dependency, mutual_information, normalized_mutual_information
from repro.table.column import CategoricalColumn, NumericColumn


class TestMutualInformation:
    def test_identical_codes(self):
        x = np.asarray([0, 1, 2, 0, 1, 2])
        assert mutual_information(x, x) > 0
        assert normalized_mutual_information(x, x) == pytest.approx(1.0)

    def test_independent_codes(self):
        x = np.asarray([0, 0, 1, 1])
        y = np.asarray([0, 1, 0, 1])
        assert mutual_information(x, y) == pytest.approx(0.0, abs=1e-12)
        assert normalized_mutual_information(x, y) == pytest.approx(0.0, abs=1e-12)

    def test_constant_vectors_give_zero(self):
        x = np.zeros(10, dtype=int)
        assert normalized_mutual_information(x, x) == 0.0


class TestColumnDependency:
    def test_strongly_dependent_numeric_pair(self, rng):
        base = rng.normal(0, 1, 400)
        a = NumericColumn("a", base)
        b = NumericColumn("b", base * 2 + rng.normal(0, 0.05, 400))
        c = NumericColumn("c", rng.normal(0, 1, 400))
        assert column_dependency(a, b) > 3 * column_dependency(a, c)

    def test_nonlinear_dependency_detected(self, rng):
        # The paper chose MI precisely because it is "sensitive to
        # non-linear relationships" — a parabola has ~0 correlation but
        # high MI.
        base = rng.normal(0, 1, 500)
        a = NumericColumn("a", base)
        b = NumericColumn("b", base**2 + rng.normal(0, 0.05, 500))
        independent = NumericColumn("i", rng.normal(0, 1, 500))
        assert column_dependency(a, b) > 3 * column_dependency(a, independent)

    def test_mixed_types(self, rng):
        labels = rng.choice(["x", "y"], 300)
        values = np.where(labels == "x", 0.0, 5.0) + rng.normal(0, 0.3, 300)
        cat = CategoricalColumn.from_labels("c", list(labels))
        num = NumericColumn("n", values)
        assert column_dependency(cat, num) > 0.5

    def test_missing_rows_dropped_pairwise(self, rng):
        base = rng.normal(0, 1, 200)
        holes = base.copy()
        holes[:50] = np.nan
        a = NumericColumn("a", holes)
        b = NumericColumn("b", base)
        # Should still detect strong dependency from the complete rows.
        assert column_dependency(a, b) > 0.5

    def test_too_few_complete_rows_give_zero(self):
        a = NumericColumn("a", [1.0, 2.0, np.nan, np.nan, 5.0])
        b = NumericColumn("b", [1.0, 2.0, 3.0, 4.0, 5.0])
        assert column_dependency(a, b) == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            column_dependency(
                NumericColumn("a", [1.0]), NumericColumn("b", [1.0, 2.0])
            )

    def test_unnormalized_option(self, rng):
        base = rng.normal(0, 1, 300)
        a = NumericColumn("a", base)
        b = NumericColumn("b", base + rng.normal(0, 0.01, 300))
        raw = column_dependency(a, b, normalized=False)
        assert raw > 1.0  # nats, unbounded above 1


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------

_codes = st.lists(st.integers(min_value=0, max_value=4), min_size=2, max_size=50)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mi_symmetry_and_bounds(data):
    n = data.draw(st.integers(min_value=2, max_value=40))
    x = np.asarray(data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))
    y = np.asarray(data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))
    assert mutual_information(x, y) == pytest.approx(mutual_information(y, x))
    assert mutual_information(x, y) >= 0.0
    nmi = normalized_mutual_information(x, y)
    assert 0.0 <= nmi <= 1.0


@settings(max_examples=50, deadline=None)
@given(x=_codes)
def test_nmi_of_self_is_one_unless_constant(x):
    codes = np.asarray(x)
    nmi = normalized_mutual_information(codes, codes)
    if np.unique(codes).size > 1:
        assert nmi == pytest.approx(1.0)
    else:
        assert nmi == 0.0
