"""Weakest-link pruning for legible maps (cost-complexity, CART book §3).

Maps must stay legible: a tree that sprouts dozens of leaves to chase a
few misassigned tuples makes a worse map, not a better one.  Weakest-link
pruning ranks internal nodes by the training error their subtree saves
per extra leaf and collapses the cheapest first; the map's description
stage prunes to a leaf budget this way without ever hiding a cluster.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.tree.cart import DecisionTree, TreeNode

__all__ = ["prune_for_legibility"]


def prune_for_legibility(
    tree: DecisionTree,
    target_leaves: int,
    min_accuracy: float = 0.9,
) -> DecisionTree:
    """Prune a description tree so the map stays legible.

    Two phases, both collapsing weakest links first and never erasing the
    *last* leaf of any class (every cluster must stay visible on the map):

    1. **hard cap** — while the tree has more than ``target_leaves``
       leaves, collapse regardless of the accuracy cost (legibility wins;
       the paper accepts that "the decision tree only approximates the
       real partitions");
    2. **cleanup** — below the cap, keep collapsing only while training
       accuracy stays at or above ``min_accuracy`` (removes pure-split
       leaves that add regions without adding information).
    """
    if target_leaves < 1:
        raise ValueError(f"target_leaves must be >= 1, got {target_leaves}")
    if not 0.0 <= min_accuracy <= 1.0:
        raise ValueError(f"min_accuracy must be in [0, 1], got {min_accuracy}")
    work = copy.deepcopy(tree)
    total = work.root.n_samples
    if total == 0:
        return work

    # Phase 1: enforce the leaf cap.
    while work.n_leaves() > target_leaves:
        candidate = _collapsible(work.root)
        if candidate is None:
            break
        _collapse(candidate)

    # Phase 2: opportunistic cleanup under the accuracy floor.
    while work.n_leaves() > 2:
        candidate = _collapsible(work.root)
        if candidate is None:
            break
        current_error, _ = _subtree_stats(work.root)
        subtree_error, _ = _subtree_stats(candidate)
        error_after = current_error + (_node_error(candidate) - subtree_error)
        if 1.0 - error_after / total < min_accuracy:
            break
        _collapse(candidate)
    return work


def _collapsible(root: TreeNode) -> TreeNode | None:
    """The weakest internal node whose collapse keeps every class visible.

    A collapse replaces a subtree by one leaf predicting the subtree's
    majority class; it is *class-safe* when every other class predicted
    by the subtree's leaves still has a leaf elsewhere in the tree.
    """
    leaf_classes: dict[int, int] = {}
    for node in root.walk():
        if node.is_leaf:
            leaf_classes[node.prediction] = (
                leaf_classes.get(node.prediction, 0) + 1
            )

    candidates: list[tuple[float, TreeNode]] = []
    for node in root.walk():
        if node.is_leaf:
            continue
        subtree_error, subtree_leaves = _subtree_stats(node)
        if subtree_leaves <= 1:
            continue
        rate = (_node_error(node) - subtree_error) / (subtree_leaves - 1)
        candidates.append((rate, node))
    candidates.sort(key=lambda pair: pair[0])

    for _, node in candidates:
        majority = int(np.argmax(node.class_counts))
        inside: dict[int, int] = {}
        for leaf in node.walk():
            if leaf.is_leaf:
                inside[leaf.prediction] = inside.get(leaf.prediction, 0) + 1
        safe = all(
            cls == majority or leaf_classes.get(cls, 0) > count
            for cls, count in inside.items()
        )
        if safe:
            return node
    return None


def _node_error(node: TreeNode) -> float:
    """Misclassified sample count when ``node`` predicts its majority class."""
    return float(node.n_samples - node.class_counts.max())


def _subtree_stats(node: TreeNode) -> tuple[float, int]:
    """(training error, leaf count) of the subtree rooted at ``node``."""
    if node.is_leaf:
        return _node_error(node), 1
    assert node.left is not None and node.right is not None
    left_error, left_leaves = _subtree_stats(node.left)
    right_error, right_leaves = _subtree_stats(node.right)
    return left_error + right_error, left_leaves + right_leaves


def _collapse(node: TreeNode) -> None:
    """Turn an internal node into a leaf predicting its majority class."""
    node.left = None
    node.right = None
    node.column = None
    node.threshold = None
    node.category = None
    node.prediction = int(np.argmax(node.class_counts))
