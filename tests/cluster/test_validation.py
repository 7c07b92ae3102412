"""Unit and property tests for external clustering indices."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import adjusted_rand_index, clustering_nmi, contingency, purity



class TestContingency:
    def test_counts(self):
        a = np.asarray([0, 0, 1, 1])
        b = np.asarray([0, 1, 1, 1])
        table = contingency(a, b)
        assert table.tolist() == [[1, 1], [0, 2]]

    def test_relabeling_invariance(self):
        a = np.asarray([5, 5, 9])
        b = np.asarray(["x", "x", "y"])
        table = contingency(a, b)
        assert table.tolist() == [[2, 0], [0, 1]]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            contingency(np.asarray([0]), np.asarray([0, 1]))


class TestAri:
    def test_identical_is_one(self):
        labels = np.asarray([0, 1, 1, 2, 2, 2])
        assert adjusted_rand_index(labels, labels) == pytest.approx(1.0)

    def test_permuted_labels_still_one(self):
        a = np.asarray([0, 0, 1, 1, 2, 2])
        b = np.asarray([2, 2, 0, 0, 1, 1])
        assert adjusted_rand_index(a, b) == pytest.approx(1.0)

    def test_independent_near_zero(self, rng):
        a = rng.integers(0, 3, 3000)
        b = rng.integers(0, 3, 3000)
        assert abs(adjusted_rand_index(a, b)) < 0.05

    def test_single_cluster_vs_itself(self):
        labels = np.zeros(5, dtype=int)
        assert adjusted_rand_index(labels, labels) == 1.0

    def test_partial_agreement_between_zero_and_one(self):
        a = np.asarray([0, 0, 0, 1, 1, 1])
        b = np.asarray([0, 0, 1, 1, 1, 1])
        value = adjusted_rand_index(a, b)
        assert 0.0 < value < 1.0


class TestNmi:
    def test_identical_is_one(self):
        labels = np.asarray([0, 1, 0, 2])
        assert clustering_nmi(labels, labels) == pytest.approx(1.0)

    def test_independent_near_zero(self, rng):
        a = rng.integers(0, 4, 5000)
        b = rng.integers(0, 4, 5000)
        assert clustering_nmi(a, b) < 0.05

    def test_both_single_cluster(self):
        labels = np.zeros(4, dtype=int)
        assert clustering_nmi(labels, labels) == 1.0

    def test_empty(self):
        assert clustering_nmi(np.asarray([]), np.asarray([])) == 0.0


class TestPurity:
    def test_pure_clusters(self):
        predicted = np.asarray([0, 0, 1, 1])
        truth = np.asarray([5, 5, 7, 7])
        assert purity(predicted, truth) == 1.0

    def test_mixed_clusters(self):
        predicted = np.asarray([0, 0, 0, 0])
        truth = np.asarray([0, 0, 1, 1])
        assert purity(predicted, truth) == 0.5

    def test_empty(self):
        assert purity(np.asarray([]), np.asarray([])) == 0.0


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_index_bounds_and_symmetry(data):
    n = data.draw(st.integers(min_value=2, max_value=40))
    a = np.asarray(data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))
    b = np.asarray(data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))
    ari = adjusted_rand_index(a, b)
    nmi = clustering_nmi(a, b)
    assert -1.0 <= ari <= 1.0 + 1e-9
    assert 0.0 <= nmi <= 1.0
    assert adjusted_rand_index(b, a) == pytest.approx(ari)
    assert clustering_nmi(b, a) == pytest.approx(nmi)
    assert 0.0 <= purity(a, b) <= 1.0
