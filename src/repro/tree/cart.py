"""Classification CART over table columns (Breiman et al. 1984).

The tree is trained directly on :class:`~repro.table.table.Table` columns
(not on the preprocessed vectors!) because its job is *description*: its
split predicates must read like statements about the user's original
columns.  Numeric columns get threshold splits (``x < t`` / ``x >= t``);
categorical columns get equality splits (``x == label`` / ``x != label``).
Missing values follow the majority branch of their node, recorded at fit
time so prediction is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.table.column import CategoricalColumn, Column, NumericColumn
from repro.table.table import Table

__all__ = ["CartParams", "TreeNode", "DecisionTree", "count_reaching", "fit_tree"]


@dataclass(frozen=True)
class CartParams:
    """Growth controls for :func:`fit_tree`.

    The defaults favour *shallow, legible* trees — Blaeu's maps show at
    most a handful of nested regions, so depth is the paper-faithful
    constraint, not accuracy.
    """

    max_depth: int = 4
    min_samples_split: int = 8
    min_samples_leaf: int = 4
    min_impurity_decrease: float = 1e-4
    max_numeric_thresholds: int = 32


@dataclass
class TreeNode:
    """One node of a fitted tree.

    Internal nodes hold a split (``column``, ``threshold`` or ``category``)
    and two children; leaves hold a predicted class.  Every node records
    its class histogram, sample count and Gini impurity for pruning and
    reporting.
    """

    n_samples: int
    class_counts: np.ndarray
    impurity: float
    depth: int
    prediction: int
    column: str | None = None
    threshold: float | None = None
    category: str | None = None
    missing_goes_left: bool = True
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        """Whether this node has no split."""
        return self.left is None

    def walk(self) -> Iterator["TreeNode"]:
        """Pre-order traversal of the subtree."""
        yield self
        if not self.is_leaf:
            assert self.left is not None and self.right is not None
            yield from self.left.walk()
            yield from self.right.walk()


@dataclass
class DecisionTree:
    """A fitted classification tree bound to its feature columns."""

    root: TreeNode
    feature_names: tuple[str, ...]
    n_classes: int
    params: CartParams = field(default_factory=CartParams)

    def predict(self, table: Table) -> np.ndarray:
        """Predicted class per row of ``table``.

        ``table`` must contain every feature column the tree was grown on.
        """
        n = table.n_rows
        out = np.empty(n, dtype=np.intp)
        indices = np.arange(n, dtype=np.intp)
        self._route(self.root, table, indices, out)
        return out

    def _route(
        self,
        node: TreeNode,
        table: Table,
        indices: np.ndarray,
        out: np.ndarray,
    ) -> None:
        if node.is_leaf or indices.size == 0:
            out[indices] = node.prediction
            return
        goes_left = _left_mask(node, table.column(node.column or ""), indices)
        assert node.left is not None and node.right is not None
        self._route(node.left, table, indices[goes_left], out)
        self._route(node.right, table, indices[~goes_left], out)

    def n_leaves(self) -> int:
        """Number of leaves (map regions the tree can describe)."""
        return sum(1 for node in self.root.walk() if node.is_leaf)

    def depth(self) -> int:
        """Maximum node depth (root = 0)."""
        return max(node.depth for node in self.root.walk())

    def accuracy(self, table: Table, labels: np.ndarray) -> float:
        """Fraction of rows the tree classifies as ``labels``.

        This is the paper's "loss of accuracy" metric for the description
        stage: how faithfully the interpretable tree reproduces the
        clustering it summarizes.
        """
        labels = np.asarray(labels)
        if labels.shape != (table.n_rows,):
            raise ValueError("labels must align with table rows")
        if table.n_rows == 0:
            return 1.0
        return float((self.predict(table) == labels).mean())


def fit_tree(
    table: Table,
    labels: np.ndarray,
    feature_names: Sequence[str] | None = None,
    params: CartParams | None = None,
) -> DecisionTree:
    """Grow a CART tree predicting ``labels`` from ``table`` columns.

    Parameters
    ----------
    table:
        Training rows; the original (not preprocessed) columns.
    labels:
        Non-negative integer class per row (Blaeu: cluster IDs).
    feature_names:
        Columns the tree may split on (default: all columns).
    params:
        Growth controls.
    """
    params = params or CartParams()
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != table.n_rows:
        raise ValueError("labels must be one value per table row")
    if labels.size == 0:
        raise ValueError("cannot fit a tree on an empty table")
    if labels.min() < 0:
        raise ValueError("labels must be non-negative integers")
    names = tuple(feature_names) if feature_names else table.column_names
    for name in names:
        table.column(name)  # raises KeyError early for unknown features
    n_classes = int(labels.max()) + 1

    indices = np.arange(table.n_rows, dtype=np.intp)
    root = _grow(table, labels.astype(np.intp), indices, names, n_classes, 0, params)
    return DecisionTree(
        root=root, feature_names=names, n_classes=n_classes, params=params
    )


# ----------------------------------------------------------------------
# Growth internals
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _Split:
    column: str
    gain: float
    threshold: float | None
    category: str | None
    left_indices: np.ndarray
    right_indices: np.ndarray
    missing_goes_left: bool


def _grow(
    table: Table,
    labels: np.ndarray,
    indices: np.ndarray,
    feature_names: tuple[str, ...],
    n_classes: int,
    depth: int,
    params: CartParams,
) -> TreeNode:
    node_labels = labels[indices]
    counts = np.bincount(node_labels, minlength=n_classes)
    node = TreeNode(
        n_samples=int(indices.size),
        class_counts=counts,
        impurity=_gini(counts),
        depth=depth,
        prediction=int(np.argmax(counts)),
    )
    if (
        depth >= params.max_depth
        or indices.size < params.min_samples_split
        or node.impurity == 0.0
    ):
        return node

    split = _best_split(table, labels, indices, feature_names, n_classes, params)
    if split is None:
        return node

    node.column = split.column
    node.threshold = split.threshold
    node.category = split.category
    node.missing_goes_left = split.missing_goes_left
    node.left = _grow(
        table, labels, split.left_indices, feature_names, n_classes,
        depth + 1, params,
    )
    node.right = _grow(
        table, labels, split.right_indices, feature_names, n_classes,
        depth + 1, params,
    )
    return node


def _best_split(
    table: Table,
    labels: np.ndarray,
    indices: np.ndarray,
    feature_names: tuple[str, ...],
    n_classes: int,
    params: CartParams,
) -> _Split | None:
    best: _Split | None = None
    for name in feature_names:
        column = table.column(name)
        if isinstance(column, NumericColumn):
            candidate = _best_numeric_split(
                column, labels, indices, n_classes, params
            )
        elif isinstance(column, CategoricalColumn):
            candidate = _best_categorical_split(
                column, labels, indices, n_classes, params
            )
        else:  # pragma: no cover - only two column kinds exist
            candidate = None
        if candidate is None:
            continue
        if best is None or candidate.gain > best.gain + 1e-15:
            best = candidate
    if best is None or best.gain < params.min_impurity_decrease:
        return None
    return best


def _best_numeric_split(
    column: NumericColumn,
    labels: np.ndarray,
    indices: np.ndarray,
    n_classes: int,
    params: CartParams,
) -> _Split | None:
    values = column.values[indices]
    present = ~np.isnan(values)
    if present.sum() < 2 * params.min_samples_leaf:
        return None
    present_indices = indices[present]
    present_values = values[present]
    missing_indices = indices[~present]

    order = np.argsort(present_values, kind="stable")
    sorted_values = present_values[order]
    sorted_labels = labels[present_indices[order]]

    # Candidate thresholds: midpoints between distinct consecutive values,
    # subsampled to at most max_numeric_thresholds for wide columns.
    distinct_boundaries = np.flatnonzero(np.diff(sorted_values) > 0)
    if distinct_boundaries.size == 0:
        return None
    if distinct_boundaries.size > params.max_numeric_thresholds:
        picks = np.linspace(
            0, distinct_boundaries.size - 1, params.max_numeric_thresholds
        ).astype(np.intp)
        distinct_boundaries = distinct_boundaries[picks]

    # Prefix class counts over the sorted labels for O(1) impurity per cut.
    one_hot = np.zeros((sorted_labels.size, n_classes), dtype=np.int64)
    one_hot[np.arange(sorted_labels.size), sorted_labels] = 1
    prefix = one_hot.cumsum(axis=0)
    total = prefix[-1]
    parent_impurity = _gini(total)
    n_present = sorted_labels.size

    # Every candidate cut at once, with the float operations _gini would
    # do per cut; cuts leaving a side under min_samples_leaf are masked
    # out and ties keep the first (lowest) boundary.
    n_left = distinct_boundaries + 1
    n_right = n_present - n_left
    valid = (n_left >= params.min_samples_leaf) & (
        n_right >= params.min_samples_leaf
    )
    if not valid.any():
        return None
    left_counts = prefix[distinct_boundaries]
    weighted = (
        n_left * _gini_rows(left_counts)
        + n_right * _gini_rows(total - left_counts)
    ) / n_present
    gains = np.where(valid, parent_impurity - weighted, -np.inf)
    best = int(np.argmax(gains))
    best_gain = gains[best]
    best_boundary = int(distinct_boundaries[best])
    if best_gain <= 0:
        return None

    threshold = float(
        (sorted_values[best_boundary] + sorted_values[best_boundary + 1]) / 2.0
    )
    goes_left = present_values < threshold
    left = present_indices[goes_left]
    right = present_indices[~goes_left]
    missing_goes_left = left.size >= right.size
    if missing_indices.size:
        if missing_goes_left:
            left = np.concatenate([left, missing_indices])
        else:
            right = np.concatenate([right, missing_indices])
    return _Split(
        column=column.name,
        gain=float(best_gain) * present.sum() / indices.size,
        threshold=threshold,
        category=None,
        left_indices=np.sort(left),
        right_indices=np.sort(right),
        missing_goes_left=missing_goes_left,
    )


def _best_categorical_split(
    column: CategoricalColumn,
    labels: np.ndarray,
    indices: np.ndarray,
    n_classes: int,
    params: CartParams,
) -> _Split | None:
    codes = column.codes[indices]
    present = codes != CategoricalColumn.MISSING_CODE
    if present.sum() < 2 * params.min_samples_leaf:
        return None
    present_indices = indices[present]
    present_codes = codes[present]
    missing_indices = indices[~present]

    used_codes = np.unique(present_codes)
    if used_codes.size < 2:
        return None

    node_labels = labels[present_indices]
    total = np.bincount(node_labels, minlength=n_classes)
    parent_impurity = _gini(total)
    n_present = present_codes.size

    best_gain = -np.inf
    best_code = -1
    for code in used_codes:
        in_category = present_codes == code
        n_left = int(in_category.sum())
        n_right = n_present - n_left
        if n_left < params.min_samples_leaf or n_right < params.min_samples_leaf:
            continue
        left_counts = np.bincount(node_labels[in_category], minlength=n_classes)
        right_counts = total - left_counts
        weighted = (
            n_left * _gini(left_counts) + n_right * _gini(right_counts)
        ) / n_present
        gain = parent_impurity - weighted
        if gain > best_gain:
            best_gain = gain
            best_code = int(code)
    if best_code < 0 or best_gain <= 0:
        return None

    goes_left = present_codes == best_code
    left = present_indices[goes_left]
    right = present_indices[~goes_left]
    missing_goes_left = left.size >= right.size
    if missing_indices.size:
        if missing_goes_left:
            left = np.concatenate([left, missing_indices])
        else:
            right = np.concatenate([right, missing_indices])
    return _Split(
        column=column.name,
        gain=float(best_gain) * present.sum() / indices.size,
        threshold=None,
        category=column.categories[best_code],
        left_indices=np.sort(left),
        right_indices=np.sort(right),
        missing_goes_left=missing_goes_left,
    )


def _left_mask(
    node: TreeNode, column: Column, indices: np.ndarray | None = None
) -> np.ndarray:
    """Which of ``indices`` (default: every row) follow the left branch
    of ``node``; a missing cell — a ``nan`` value, a ``-1`` code — goes
    where ``node.missing_goes_left`` says."""
    if node.threshold is not None:
        if not isinstance(column, NumericColumn):
            raise TypeError(
                f"tree splits {node.column!r} numerically but the column "
                f"is {type(column).__name__}"
            )
        values = column.values if indices is None else column.values[indices]
        with np.errstate(invalid="ignore"):
            goes_left = values < node.threshold
        goes_left[np.isnan(values)] = node.missing_goes_left
        return goes_left
    if not isinstance(column, CategoricalColumn):
        raise TypeError(
            f"tree splits {node.column!r} categorically but the column "
            f"is {type(column).__name__}"
        )
    codes = column.codes if indices is None else column.codes[indices]
    try:
        target = column.code_of(node.category or "")
    except KeyError:
        goes_left = np.zeros(codes.size, dtype=bool)
    else:
        goes_left = codes == target
    goes_left[codes == CategoricalColumn.MISSING_CODE] = node.missing_goes_left
    return goes_left


def count_reaching(
    root: TreeNode, table: Table, selection: np.ndarray
) -> np.ndarray:
    """How many selected rows reach each node, in :meth:`TreeNode.walk` order.

    ``selection`` is a boolean mask over ``table``'s rows (an index
    array of distinct rows is turned into one).  Every split is one
    whole-column comparison and a child's rows are its parent's masked
    by it, so nothing is gathered: on a scan chunk that is a few
    contiguous passes per node, however the selected rows scatter.
    """
    if selection.dtype != bool:
        reach = np.zeros(table.n_rows, dtype=bool)
        reach[selection] = True
        selection = reach
    counts: list[int] = []
    # (node, the rows reaching it, how many); pre-order: the left
    # subtree pops first.  A leaf only needs its count.
    pending = [(root, selection, int(np.count_nonzero(selection)))]
    while pending:
        node, rows, size = pending.pop()
        counts.append(size)
        if node.is_leaf:
            continue
        left, right = node.left, node.right
        assert left is not None and right is not None
        goes_left = _left_mask(node, table.column(node.column or ""))
        left_rows = rows & goes_left
        n_left = int(np.count_nonzero(left_rows))
        right_rows = None if right.is_leaf else rows & ~goes_left
        pending.append((right, right_rows, size - n_left))
        pending.append((left, left_rows, n_left))
    return np.asarray(counts, dtype=np.int64)


def _gini(counts: np.ndarray) -> float:
    """Gini impurity ``1 − Σ p²`` of a class-count vector."""
    counts = np.asarray(counts, dtype=np.float64)
    total = counts.sum()
    if total <= 0:
        return 0.0
    proportions = counts / total
    return float(1.0 - (proportions**2).sum())


def _gini_rows(counts: np.ndarray) -> np.ndarray:
    """:func:`_gini` of every (non-empty) row of a class-count matrix."""
    counts = np.asarray(counts, dtype=np.float64)
    proportions = counts / counts.sum(axis=1)[:, None]
    return 1.0 - (proportions**2).sum(axis=1)
