"""Unit and property tests for the CART implementation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.table.column import CategoricalColumn, NumericColumn
from repro.table.table import Table
from repro.tree.cart import CartParams, fit_tree


def _threshold_data(rng, n=200):
    """Labels determined by x < 5."""
    x = rng.uniform(0, 10, n)
    labels = (x >= 5).astype(np.intp)
    table = Table(
        "t", [NumericColumn("x", x), NumericColumn("noise", rng.normal(0, 1, n))]
    )
    return table, labels


class TestFitPredict:
    def test_learns_simple_threshold(self, rng):
        table, labels = _threshold_data(rng)
        tree = fit_tree(table, labels)
        assert tree.accuracy(table, labels) > 0.97
        assert tree.root.column == "x"
        assert tree.root.threshold == pytest.approx(5.0, abs=0.5)

    def test_learns_categorical_split(self, rng):
        cities = rng.choice(["ams", "nyc", "sfo"], 200)
        labels = (cities == "ams").astype(np.intp)
        table = Table("t", [CategoricalColumn.from_labels("city", list(cities))])
        tree = fit_tree(table, labels)
        assert tree.accuracy(table, labels) == 1.0
        assert tree.root.category == "ams"

    def test_learns_xor_given_depth(self, rng):
        # XOR is invisible to any single split: the greedy first cut lands
        # on noise and the tree needs extra depth to recover (a classic
        # CART behaviour, Breiman et al. §4).
        x = rng.uniform(-1, 1, 400)
        y = rng.uniform(-1, 1, 400)
        labels = ((x > 0) ^ (y > 0)).astype(np.intp)
        table = Table("t", [NumericColumn("x", x), NumericColumn("y", y)])
        tree = fit_tree(
            table,
            labels,
            params=CartParams(
                max_depth=5,
                min_samples_leaf=2,
                min_samples_split=4,
                max_numeric_thresholds=128,
            ),
        )
        assert tree.accuracy(table, labels) > 0.95

    def test_respects_max_depth(self, rng):
        table, labels = _threshold_data(rng)
        tree = fit_tree(table, labels, params=CartParams(max_depth=1))
        assert tree.depth() <= 1

    def test_respects_min_samples_leaf(self, rng):
        table, labels = _threshold_data(rng, n=100)
        tree = fit_tree(table, labels, params=CartParams(min_samples_leaf=20))
        for node in tree.root.walk():
            if node.is_leaf:
                assert node.n_samples >= 20

    def test_pure_node_stops_growing(self):
        table = Table("t", [NumericColumn("x", [1.0, 2.0, 3.0, 4.0])])
        tree = fit_tree(table, np.zeros(4, dtype=int))
        assert tree.root.is_leaf

    def test_feature_subset_respected(self, rng):
        table, labels = _threshold_data(rng)
        tree = fit_tree(table, labels, feature_names=("noise",))
        used = {n.column for n in tree.root.walk() if not n.is_leaf}
        assert used <= {"noise"}

    def test_unknown_feature_rejected(self, rng):
        table, labels = _threshold_data(rng)
        with pytest.raises(KeyError):
            fit_tree(table, labels, feature_names=("nope",))

    def test_label_validation(self, rng):
        table, labels = _threshold_data(rng)
        with pytest.raises(ValueError):
            fit_tree(table, labels[:-1])
        with pytest.raises(ValueError):
            fit_tree(table, labels - 5)

    def test_missing_values_follow_majority_branch(self, rng):
        x = np.concatenate([rng.uniform(0, 4, 80), rng.uniform(6, 10, 20)])
        labels = (x >= 5).astype(np.intp)
        x_missing = x.copy()
        x_missing[:5] = np.nan  # 5 missing cells in the majority side
        table = Table("t", [NumericColumn("x", x_missing)])
        tree = fit_tree(table, labels)
        predictions = tree.predict(table)
        # Missing rows are routed to the majority (left) branch: class 0.
        assert (predictions[:5] == 0).all()

    def test_prediction_on_unseen_table(self, rng):
        table, labels = _threshold_data(rng)
        tree = fit_tree(table, labels)
        fresh = Table(
            "fresh",
            [
                NumericColumn("x", [1.0, 9.0]),
                NumericColumn("noise", [0.0, 0.0]),
            ],
        )
        assert tree.predict(fresh).tolist() == [0, 1]

    def test_class_counts_consistent(self, rng):
        table, labels = _threshold_data(rng)
        tree = fit_tree(table, labels)
        for node in tree.root.walk():
            assert node.class_counts.sum() == node.n_samples
            if not node.is_leaf:
                assert node.left is not None and node.right is not None
                child_total = (
                    node.left.class_counts + node.right.class_counts
                )
                assert (child_total == node.class_counts).all()


class TestLeafCount:
    def test_n_leaves_and_depth(self, rng):
        table, labels = _threshold_data(rng)
        tree = fit_tree(table, labels)
        leaves = [n for n in tree.root.walk() if n.is_leaf]
        assert tree.n_leaves() == len(leaves)
        assert tree.depth() == max(n.depth for n in tree.root.walk())


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=10, max_value=120),
    n_classes=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=999),
)
def test_tree_partitions_all_rows(n, n_classes, seed):
    """Every row lands in exactly one leaf; predictions are valid classes."""
    rng = np.random.default_rng(seed)
    table = Table(
        "t",
        [
            NumericColumn("a", rng.normal(0, 1, n)),
            CategoricalColumn.from_labels(
                "b", list(rng.choice(["p", "q", "r"], n))
            ),
        ],
    )
    labels = rng.integers(0, n_classes, n).astype(np.intp)
    tree = fit_tree(table, labels)
    predictions = tree.predict(table)
    assert predictions.shape == (n,)
    assert (predictions >= 0).all() and (predictions < n_classes).all()
    # Leaf sample counts partition the training set.
    leaf_total = sum(
        node.n_samples for node in tree.root.walk() if node.is_leaf
    )
    assert leaf_total == n
