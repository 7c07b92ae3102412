"""The vectorised numeric split search against the loop it replaced.

``_best_numeric_split`` evaluates every candidate threshold in one shot;
the per-boundary loop it used to run is kept here, verbatim, as the
reference.  Fitted trees must be equal node for node — same float
operations, same first-maximum tie rule — and so must the nodes
:func:`count_reaching` says each row visits.
"""

from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.table.column import CategoricalColumn, NumericColumn
from repro.table.table import Table
from repro.tree import cart
from repro.tree.cart import CartParams, _gini, _Split, count_reaching, fit_tree


def _reference_best_numeric_split(column, labels, indices, n_classes, params):
    """The pre-vectorisation search: a Python loop over the boundaries."""
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

    distinct_boundaries = np.flatnonzero(np.diff(sorted_values) > 0)
    if distinct_boundaries.size == 0:
        return None
    if distinct_boundaries.size > params.max_numeric_thresholds:
        picks = np.linspace(
            0, distinct_boundaries.size - 1, params.max_numeric_thresholds
        ).astype(np.intp)
        distinct_boundaries = distinct_boundaries[picks]

    one_hot = np.zeros((sorted_labels.size, n_classes), dtype=np.int64)
    one_hot[np.arange(sorted_labels.size), sorted_labels] = 1
    prefix = one_hot.cumsum(axis=0)
    total = prefix[-1]
    parent_impurity = _gini(total)
    n_present = sorted_labels.size

    best_gain = -np.inf
    best_boundary = -1
    for boundary in distinct_boundaries:
        n_left = boundary + 1
        n_right = n_present - n_left
        if n_left < params.min_samples_leaf or n_right < params.min_samples_leaf:
            continue
        left_counts = prefix[boundary]
        right_counts = total - left_counts
        weighted = (
            n_left * _gini(left_counts) + n_right * _gini(right_counts)
        ) / n_present
        gain = parent_impurity - weighted
        if gain > best_gain:
            best_gain = gain
            best_boundary = int(boundary)
    if best_boundary < 0 or best_gain <= 0:
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


def _nodes(tree):
    return [
        (
            node.column,
            node.threshold,
            node.category,
            node.missing_goes_left,
            node.n_samples,
            node.class_counts.tolist(),
            node.impurity,
            node.prediction,
            node.depth,
        )
        for node in tree.root.walk()
    ]


@st.composite
def _cases(draw):
    """Columns built to tie: few distinct values, constant runs, NaNs,
    labels that follow a column or nothing, nodes down to two rows."""
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(2, 160))
    n_classes = draw(st.integers(2, 9))
    columns = []
    for index in range(draw(st.integers(1, 4))):
        shape = draw(st.sampled_from(["coarse", "fine", "runs", "constant"]))
        if shape == "coarse":
            values = rng.integers(0, draw(st.integers(2, 6)), n).astype(float)
        elif shape == "fine":
            values = rng.normal(size=n)
        elif shape == "runs":
            values = np.repeat(rng.normal(size=-(-n // 7)), 7)[:n]
        else:
            values = np.full(n, 3.25)
        missing = rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.6, 1.0]))
        columns.append(NumericColumn(f"x{index}", np.where(missing, np.nan, values)))
    if draw(st.booleans()):
        codes = rng.integers(-1, 3, n).astype(np.int32)
        columns.append(CategoricalColumn("tag", codes, ("a", "b", "c")))
    labelling = draw(st.sampled_from(["follows", "random", "mirrored"]))
    if labelling == "follows":  # labels a split can explain
        first = np.nan_to_num(columns[0].values, nan=0.0)
        labels = np.digitize(first, np.quantile(first, [0.3, 0.6])) % n_classes
    elif labelling == "random":
        labels = rng.integers(0, n_classes, n)
    else:
        # Labels that read the same from both ends of a distinct-valued
        # column: the cuts b and n-2-b gain exactly the same, so the
        # first-maximum rule decides.
        rank = rng.permutation(n)
        columns[0] = NumericColumn("x0", rank.astype(float))
        half = rng.integers(0, n_classes, n)
        labels = half[np.minimum(rank, n - 1 - rank)]
    params = CartParams(
        max_depth=draw(st.integers(1, 5)),
        min_samples_split=draw(st.integers(2, 10)),
        min_samples_leaf=draw(st.integers(1, 6)),
        min_impurity_decrease=draw(st.sampled_from([0.0, 1e-4, 0.02])),
        max_numeric_thresholds=draw(st.sampled_from([1, 2, 5, 32])),
    )
    return Table("t", columns), labels.astype(np.intp), params


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(case=_cases())
def test_vectorised_search_fits_the_reference_tree(case):
    table, labels, params = case
    fitted = fit_tree(table, labels, params=params)
    with mock.patch.object(cart, "_best_numeric_split", _reference_best_numeric_split):
        reference = fit_tree(table, labels, params=params)
    assert _nodes(fitted) == _nodes(reference)

    # count_reaching conserves rows down the tree:
    # a node's rows are exactly its children's.
    every_row = np.arange(table.n_rows, dtype=np.intp)
    counts = count_reaching(fitted.root, table, every_row)
    assert counts[0] == table.n_rows
    walk = list(fitted.root.walk())
    position = {id(node): index for index, node in enumerate(walk)}
    for node, count in zip(walk, counts):
        if not node.is_leaf:
            below = counts[position[id(node.left)]] + counts[position[id(node.right)]]
            assert count == below
    # ... and on the training rows it reproduces the fit-time node sizes.
    assert counts.tolist() == [node.n_samples for node in walk]
    nothing = count_reaching(fitted.root, table, every_row[:0])
    assert nothing.tolist() == [0] * len(walk)
