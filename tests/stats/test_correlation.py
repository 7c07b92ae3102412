"""Unit tests for correlation coefficients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import pearson, spearman


class TestPearson:
    def test_perfect_positive(self):
        x = np.asarray([1.0, 2.0, 3.0, 4.0])
        assert pearson(x, 2 * x + 1) == pytest.approx(1.0)

    def test_perfect_negative(self):
        x = np.asarray([1.0, 2.0, 3.0, 4.0])
        assert pearson(x, -x) == pytest.approx(-1.0)

    def test_independent_near_zero(self, rng):
        x = rng.normal(0, 1, 2000)
        y = rng.normal(0, 1, 2000)
        assert abs(pearson(x, y)) < 0.1

    def test_constant_gives_zero(self):
        x = np.asarray([1.0, 1.0, 1.0])
        assert pearson(x, np.asarray([1.0, 2.0, 3.0])) == 0.0

    def test_nan_pairs_dropped(self):
        x = np.asarray([1.0, 2.0, 3.0, np.nan, 5.0])
        y = np.asarray([2.0, 4.0, 6.0, 8.0, np.nan])
        assert pearson(x, y) == pytest.approx(1.0)

    def test_too_few_rows_give_zero(self):
        assert pearson(np.asarray([1.0, 2.0]), np.asarray([1.0, 2.0])) == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pearson(np.asarray([1.0]), np.asarray([1.0, 2.0]))


class TestSpearman:
    def test_monotone_nonlinear_is_one(self):
        x = np.asarray([1.0, 2.0, 3.0, 4.0, 5.0])
        assert spearman(x, np.exp(x)) == pytest.approx(1.0)

    def test_handles_ties(self):
        x = np.asarray([1.0, 1.0, 2.0, 3.0])
        y = np.asarray([1.0, 1.0, 2.0, 3.0])
        assert spearman(x, y) == pytest.approx(1.0)

    def test_reversed_is_minus_one(self):
        x = np.asarray([1.0, 2.0, 3.0, 4.0])
        assert spearman(x, x[::-1].copy()) == pytest.approx(-1.0)


_vectors = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False),
    min_size=3,
    max_size=40,
)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_correlations_bounded_and_symmetric(data):
    n = data.draw(st.integers(min_value=3, max_value=30))
    x = np.asarray(data.draw(st.lists(
        st.floats(-50, 50, allow_nan=False), min_size=n, max_size=n)))
    y = np.asarray(data.draw(st.lists(
        st.floats(-50, 50, allow_nan=False), min_size=n, max_size=n)))
    for measure in (pearson, spearman):
        r = measure(x, y)
        assert -1.0 <= r <= 1.0
        assert measure(y, x) == pytest.approx(r)
