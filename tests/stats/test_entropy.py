"""Unit and property tests for entropy estimators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import entropy_from_counts, joint_entropy, shannon_entropy



class TestEntropyFromCounts:
    def test_uniform_two(self):
        assert entropy_from_counts(np.asarray([5, 5])) == pytest.approx(
            math.log(2)
        )

    def test_deterministic_is_zero(self):
        assert entropy_from_counts(np.asarray([10, 0, 0])) == 0.0

    def test_empty_counts(self):
        assert entropy_from_counts(np.asarray([])) == 0.0

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            entropy_from_counts(np.asarray([3, -1]))


class TestShannonEntropy:
    def test_matches_formula(self):
        codes = np.asarray([0, 0, 0, 1])
        expected = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25))
        assert shannon_entropy(codes) == pytest.approx(expected)

    def test_empty(self):
        assert shannon_entropy(np.asarray([], dtype=int)) == 0.0

    def test_negative_codes_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            shannon_entropy(np.asarray([0, -1]))


class TestJointAndConditional:
    def test_joint_of_independent_uniform(self):
        x = np.asarray([0, 0, 1, 1])
        y = np.asarray([0, 1, 0, 1])
        assert joint_entropy(x, y) == pytest.approx(math.log(4))

    def test_joint_of_identical_equals_marginal(self):
        x = np.asarray([0, 1, 2, 0, 1, 2])
        assert joint_entropy(x, x) == pytest.approx(shannon_entropy(x))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            joint_entropy(np.asarray([0]), np.asarray([0, 1]))


_codes = st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=60)


@settings(max_examples=100, deadline=None)
@given(x=_codes)
def test_entropy_nonnegative_and_bounded(x):
    codes = np.asarray(x)
    h = shannon_entropy(codes)
    assert 0.0 <= h <= math.log(max(np.unique(codes).size, 1)) + 1e-12


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_joint_entropy_bounds(data):
    n = data.draw(st.integers(min_value=1, max_value=50))
    x = np.asarray(data.draw(st.lists(
        st.integers(0, 4), min_size=n, max_size=n)))
    y = np.asarray(data.draw(st.lists(
        st.integers(0, 4), min_size=n, max_size=n)))
    h_x = shannon_entropy(x)
    h_y = shannon_entropy(y)
    h_xy = joint_entropy(x, y)
    # max(H(X), H(Y)) <= H(X,Y) <= H(X) + H(Y)
    assert h_xy >= max(h_x, h_y) - 1e-9
    assert h_xy <= h_x + h_y + 1e-9
