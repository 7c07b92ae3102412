"""CART decision trees — the cluster-description stage.

Blaeu's final pipeline stage "simplifies the clusters … it uses a
decision tree algorithm, such as CART.  It trains the tree model on the
original tuples from the database, using the cluster IDs obtained
previously as class labels" (§3).  The tree's split predicates become the
human-readable region boundaries on the map ("Hours Worked >= 20").

This package implements classification CART (Breiman et al. 1984) with
Gini impurity, numeric threshold splits and categorical equality splits,
and the weakest-link pruning that keeps a map legible.
"""

from repro.tree.cart import CartParams, DecisionTree, TreeNode, fit_tree
from repro.tree.prune import prune_for_legibility

__all__ = [
    "CartParams",
    "DecisionTree",
    "TreeNode",
    "fit_tree",
    "prune_for_legibility",
]
