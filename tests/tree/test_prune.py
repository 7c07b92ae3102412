"""Unit tests for legibility pruning."""

import numpy as np
import pytest

from repro.table.column import NumericColumn
from repro.table.table import Table
from repro.tree.cart import CartParams, fit_tree
from repro.tree.prune import prune_for_legibility


@pytest.fixture
def noisy_tree(rng):
    """A deliberately overgrown tree on noisy threshold data."""
    n = 300
    x = rng.uniform(0, 10, n)
    labels = ((x >= 5) ^ (rng.random(n) < 0.08)).astype(np.intp)  # 8% noise
    table = Table(
        "t",
        [NumericColumn("x", x), NumericColumn("z", rng.normal(0, 1, n))],
    )
    tree = fit_tree(
        table, labels,
        params=CartParams(max_depth=6, min_samples_leaf=2, min_samples_split=4),
    )
    return table, labels, tree


class TestLegibility:
    def test_a_smaller_leaf_budget_never_keeps_more_leaves(self, noisy_tree):
        _, _, tree = noisy_tree
        budgets = (12, 8, 5, 3, 2, 1)
        sizes = [
            prune_for_legibility(tree, target_leaves=t, min_accuracy=0.0).n_leaves()
            for t in budgets
        ]
        assert sizes == sorted(sizes, reverse=True)
        assert all(size <= max(t, 2) for size, t in zip(sizes, budgets))

    def test_original_untouched(self, noisy_tree):
        _, _, tree = noisy_tree
        before = tree.n_leaves()
        prune_for_legibility(tree, target_leaves=1, min_accuracy=0.0)
        assert tree.n_leaves() == before

    def test_leaf_cap_enforced(self, noisy_tree):
        _, _, tree = noisy_tree
        pruned = prune_for_legibility(tree, target_leaves=4, min_accuracy=0.0)
        assert pruned.n_leaves() <= 4

    def test_every_class_keeps_a_leaf(self, rng):
        # Three classes, one of them small: pruning must not erase it.
        x = np.concatenate([
            rng.uniform(0, 3, 100),
            rng.uniform(4, 7, 100),
            rng.uniform(8, 10, 12),
        ])
        labels = np.concatenate([
            np.zeros(100), np.ones(100), np.full(12, 2)
        ]).astype(np.intp)
        table = Table("t", [NumericColumn("x", x)])
        tree = fit_tree(table, labels)
        pruned = prune_for_legibility(tree, target_leaves=3, min_accuracy=0.5)
        predicted_classes = {
            node.prediction for node in pruned.root.walk() if node.is_leaf
        }
        assert predicted_classes == {0, 1, 2}

    def test_cleanup_removes_redundant_pure_leaves(self, rng):
        # Two clusters; the tree may split one cluster into two pure
        # leaves.  Cleanup merges them at negligible accuracy cost.
        x = np.concatenate([rng.uniform(0, 4, 100), rng.uniform(6, 10, 100)])
        labels = (x >= 5).astype(np.intp)
        table = Table(
            "t", [NumericColumn("x", x), NumericColumn("z", rng.normal(0, 1, 200))]
        )
        tree = fit_tree(
            table, labels,
            params=CartParams(max_depth=5, min_samples_leaf=2, min_samples_split=4),
        )
        pruned = prune_for_legibility(tree, target_leaves=8, min_accuracy=0.95)
        assert pruned.n_leaves() <= max(2, tree.n_leaves())
        assert pruned.accuracy(table, labels) >= 0.95

    def test_invalid_arguments_rejected(self, noisy_tree):
        _, _, tree = noisy_tree
        with pytest.raises(ValueError):
            prune_for_legibility(tree, target_leaves=0)
        with pytest.raises(ValueError):
            prune_for_legibility(tree, target_leaves=2, min_accuracy=1.5)

    def test_accuracy_floor_respected_below_cap(self, noisy_tree):
        table, labels, tree = noisy_tree
        pruned = prune_for_legibility(
            tree, target_leaves=tree.n_leaves(), min_accuracy=0.9
        )
        assert pruned.accuracy(table, labels) >= 0.9


def _structure(tree):
    """A structural signature: (column, threshold, prediction) per node."""
    return [
        (node.column, node.threshold, node.category, node.prediction)
        for node in tree.root.walk()
    ]


class TestLegibilityEdgeCases:
    def test_target_at_or_above_leaf_count_is_a_noop(self, rng):
        """A satisfied cap leaves a non-redundant tree untouched.

        Two shapes with nothing to clean up: a two-leaf stump (phase 2
        never enters below three leaves) and a three-class tree where
        every class owns exactly one leaf (no collapse is class-safe).
        """
        x = np.concatenate([rng.uniform(0, 3, 60), rng.uniform(6, 9, 60)])
        stump = fit_tree(
            Table("t", [NumericColumn("x", x)]),
            (x >= 5).astype(np.intp),
            params=CartParams(max_depth=1),
        )
        assert stump.n_leaves() == 2
        for target in (2, 5):
            pruned = prune_for_legibility(stump, target, min_accuracy=0.0)
            assert _structure(pruned) == _structure(stump)
            assert pruned is not stump  # always a copy, never aliased

        x3 = np.concatenate(
            [rng.uniform(0, 2, 50), rng.uniform(4, 6, 50), rng.uniform(8, 10, 50)]
        )
        labels3 = np.repeat(np.arange(3, dtype=np.intp), 50)
        three = fit_tree(
            Table("t", [NumericColumn("x", x3)]),
            labels3,
            params=CartParams(max_depth=2),
        )
        assert three.n_leaves() == 3  # depth-2 binary tree over 3 classes
        pruned3 = prune_for_legibility(three, 10, min_accuracy=0.0)
        assert _structure(pruned3) == _structure(three)

    def test_satisfied_cap_never_costs_accuracy(self, noisy_tree):
        """With the cap already met, only free cleanup may happen."""
        table, labels, tree = noisy_tree
        accuracy = tree.accuracy(table, labels)
        pruned = prune_for_legibility(
            tree, target_leaves=tree.n_leaves(), min_accuracy=accuracy
        )
        assert pruned.n_leaves() <= tree.n_leaves()
        assert pruned.accuracy(table, labels) >= accuracy

    def test_unreachable_min_accuracy_returns_best_effort(self, rng):
        """Conflicting labels on identical features: training accuracy
        can never reach 1.0, so the floor is unreachable — pruning must
        terminate, enforce the cap, and hand back its best effort."""
        x = np.repeat(np.arange(6, dtype=np.float64), 20)
        # Alternating group majorities with in-group conflicts: no tree
        # over x can reach training accuracy 1.0.
        labels = (
            (x.astype(np.intp) % 2) ^ (rng.random(120) < 0.3)
        ).astype(np.intp)
        table = Table("t", [NumericColumn("x", x)])
        tree = fit_tree(
            table,
            labels,
            params=CartParams(
                max_depth=5, min_samples_leaf=2, min_samples_split=4
            ),
        )
        assert tree.accuracy(table, labels) < 1.0
        pruned = prune_for_legibility(tree, target_leaves=2, min_accuracy=1.0)
        assert pruned.n_leaves() <= 2
        # Both classes stay visible despite the hard cap.
        predictions = {
            node.prediction for node in pruned.root.walk() if node.is_leaf
        }
        assert predictions == {0, 1}

    def test_single_leaf_tree_passes_through(self, rng):
        """A root-only tree (one class) has nothing to prune."""
        table = Table("t", [NumericColumn("x", rng.normal(0, 1, 40))])
        labels = np.zeros(40, dtype=np.intp)
        tree = fit_tree(table, labels)
        assert tree.n_leaves() == 1
        for target in (1, 4):
            pruned = prune_for_legibility(
                tree, target_leaves=target, min_accuracy=0.9
            )
            assert pruned.n_leaves() == 1
            assert pruned.root.is_leaf
            assert pruned.root.prediction == 0
            assert pruned is not tree
        assert tree.n_leaves() == 1  # the original is untouched
