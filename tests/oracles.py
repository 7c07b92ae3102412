"""Reference implementations the tests hold the engine against.

None of this runs in the engine.  Each function is the slow, obvious
twin of something the engine computes faster, or an external score the
paper's claims are measured with:

* whole-column discretization and the plug-in entropy and
  mutual-information estimators, one pair at a time — the scalar
  reference the batched NMI kernel
  (:mod:`repro.stats.batched`) must match to ``atol 1e-12``;
* :func:`encode_table`, which factorizes a whole table into the code
  matrix the batched kernel consumes;
* :func:`is_unique_key`, the whole-column key test
  :class:`~repro.table.schema.KeyScan` must agree with;
* external clustering indices (ARI, max-normalized NMI, purity) —
  ``tests/paper/`` scores sampled maps and planted-structure recovery
  with them; the engine never sees ground truth;
* :func:`monte_carlo_silhouette`, the per-call Monte-Carlo estimate that
  :class:`~repro.cluster.silhouette.SharedSilhouette` batches.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.cluster.silhouette import SharedSilhouette
from repro.stats.batched import MIN_COMPLETE_ROWS, ColumnCodes
from repro.stats.discretize import (
    MISSING_BIN,
    _require_finite,
    apply_bin_cuts,
    equal_frequency_cuts,
    suggest_bin_count,
)
from repro.table.column import CategoricalColumn, Column, NumericColumn
from repro.table.table import Table

# ----------------------------------------------------------------------
# Whole-column discretization
# ----------------------------------------------------------------------


def equal_width_cuts(values: np.ndarray, n_bins: int) -> np.ndarray:
    """Interior cut points of ``n_bins`` equal-width intervals over ``values``.

    Cut points are the separable representation of a binning: a value's
    code is ``searchsorted(cuts, value, side="right")`` (see
    :func:`apply_bin_cuts`), which lets cuts derived from one row set —
    a persisted sample, say — encode any other rows later, chunk by
    chunk.  A constant (or empty) input yields no cuts: a single bin.
    """
    values = np.asarray(values, dtype=np.float64)
    _require_finite(values)
    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins}")
    if values.size == 0:
        return np.empty(0, dtype=np.float64)
    low, high = float(values.min()), float(values.max())
    if low == high:
        return np.empty(0, dtype=np.float64)
    return np.linspace(low, high, n_bins + 1)[1:-1]


def equal_width_bins(values: np.ndarray, n_bins: int) -> np.ndarray:
    """Assign each value to one of ``n_bins`` equal-width intervals.

    ``values`` must be free of NaN.  Returns int codes in ``[0, n_bins)``.
    A constant column collapses to a single bin.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        if n_bins < 1:
            raise ValueError(f"n_bins must be >= 1, got {n_bins}")
        return np.empty(0, dtype=np.int32)
    return apply_bin_cuts(values, equal_width_cuts(values, n_bins))


def equal_frequency_bins(values: np.ndarray, n_bins: int) -> np.ndarray:
    """Assign each value to one of ``n_bins`` (approximately) equal-count bins.

    Ties at quantile boundaries go to the lower bin, so heavily repeated
    values can make bins uneven; duplicate edges are merged.  Returns int
    codes in ``[0, effective_bins)``.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        if n_bins < 1:
            raise ValueError(f"n_bins must be >= 1, got {n_bins}")
        return np.empty(0, dtype=np.int32)
    return apply_bin_cuts(values, equal_frequency_cuts(values, n_bins))


def discretize_column(
    column: Column,
    n_bins: int | None = None,
    equal_frequency: bool = True,
) -> np.ndarray:
    """Integer codes for any column; missing cells get :data:`MISSING_BIN`.

    Categorical columns pass through their codes unchanged; numeric columns
    are binned (equal-frequency by default).
    """
    if isinstance(column, CategoricalColumn):
        return column.codes.astype(np.int32)
    if not isinstance(column, NumericColumn):
        raise TypeError(f"unsupported column type {type(column).__name__}")

    codes = np.full(len(column), MISSING_BIN, dtype=np.int32)
    present = column.present_mask
    present_values = column.values[present]
    if present_values.size == 0:
        return codes
    if n_bins is None:
        n_bins = suggest_bin_count(present_values.size)
    if equal_frequency:
        binned = equal_frequency_bins(present_values, n_bins)
    else:
        binned = equal_width_bins(present_values, n_bins)
    codes[present] = binned
    return codes


# ----------------------------------------------------------------------
# Plug-in entropy (nats)
# ----------------------------------------------------------------------


def entropy_from_counts(counts: np.ndarray) -> float:
    """Entropy (nats) of the empirical distribution given by ``counts``."""
    counts = np.asarray(counts, dtype=np.float64).ravel()
    if np.any(counts < 0):
        raise ValueError("counts must be non-negative")
    total = counts.sum()
    if total <= 0:
        return 0.0
    probabilities = counts[counts > 0] / total
    return float(-(probabilities * np.log(probabilities)).sum())


def shannon_entropy(codes: np.ndarray) -> float:
    """Entropy (nats) of a vector of non-negative integer codes."""
    codes = _validated(codes)
    if codes.size == 0:
        return 0.0
    return entropy_from_counts(np.bincount(codes))


def joint_entropy(x: np.ndarray, y: np.ndarray) -> float:
    """Entropy (nats) of the joint distribution of two code vectors."""
    x = _validated(x)
    y = _validated(y)
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.shape[0]} vs {y.shape[0]}")
    if x.size == 0:
        return 0.0
    joint = _joint_counts(x, y)
    return entropy_from_counts(joint)


def _joint_counts(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Contingency counts of the paired codes, as a flat array."""
    n_y = int(y.max()) + 1 if y.size else 1
    paired = x.astype(np.int64) * n_y + y.astype(np.int64)
    return np.bincount(paired)


def _validated(codes: np.ndarray) -> np.ndarray:
    codes = np.asarray(codes)
    if codes.ndim != 1:
        raise ValueError("codes must be one-dimensional")
    if codes.size and codes.min() < 0:
        raise ValueError(
            "codes must be non-negative; drop missing cells before "
            "computing entropies"
        )
    return codes.astype(np.int64)


# ----------------------------------------------------------------------
# Mutual information between columns of mixed type
# ----------------------------------------------------------------------


def mutual_information(x: np.ndarray, y: np.ndarray) -> float:
    """``I(X; Y)`` in nats from two aligned code vectors (no missing codes).

    Clamped at 0: the plug-in identity ``H(X) + H(Y) − H(X, Y)`` can go
    microscopically negative through floating-point rounding.
    """
    mi = shannon_entropy(x) + shannon_entropy(y) - joint_entropy(x, y)
    return max(0.0, float(mi))


def normalized_mutual_information(x: np.ndarray, y: np.ndarray) -> float:
    """``I(X; Y) / sqrt(H(X) · H(Y))`` — in ``[0, 1]``.

    Constant vectors (entropy 0) share no information *and* have none to
    share; we define the result as 0 in those degenerate cases.
    """
    h_x = shannon_entropy(x)
    h_y = shannon_entropy(y)
    if h_x <= 0.0 or h_y <= 0.0:
        return 0.0
    value = mutual_information(x, y) / np.sqrt(h_x * h_y)
    return float(min(1.0, max(0.0, value)))


def column_dependency(
    a: Column,
    b: Column,
    n_bins: int | None = None,
    normalized: bool = True,
) -> float:
    """Dependency between two table columns of any kind.

    Discretizes as needed, drops rows missing in either column, and
    returns (normalized) MI.  Returns 0 when fewer than
    :data:`MIN_COMPLETE_ROWS` complete rows remain.
    """
    if len(a) != len(b):
        raise ValueError(
            f"columns {a.name!r} and {b.name!r} have different lengths"
        )
    codes_a = discretize_column(a, n_bins=n_bins)
    codes_b = discretize_column(b, n_bins=n_bins)
    complete = (codes_a != MISSING_BIN) & (codes_b != MISSING_BIN)
    if int(complete.sum()) < MIN_COMPLETE_ROWS:
        return 0.0
    x = codes_a[complete]
    y = codes_b[complete]
    if normalized:
        return normalized_mutual_information(x, y)
    return mutual_information(x, y)


# ----------------------------------------------------------------------
# The batched kernel's input
# ----------------------------------------------------------------------


def encode_table(
    table: Table,
    columns: Sequence[str] | None = None,
    n_bins: int | None = None,
) -> ColumnCodes:
    """Factorize ``columns`` of ``table`` once into a code matrix.

    Categorical columns pass their codes through (cardinality = the
    category list); numeric columns are discretized exactly like the
    whole-column reference (:func:`discretize_column`).
    """
    names = tuple(columns) if columns is not None else table.column_names
    matrix = np.empty((len(names), table.n_rows), dtype=np.int32)
    cardinalities: list[int] = []
    for row, name in enumerate(names):
        column = table.column(name)
        codes = discretize_column(column, n_bins=n_bins)
        matrix[row] = codes
        if isinstance(column, CategoricalColumn):
            cardinalities.append(len(column.categories))
        else:
            cardinalities.append(int(codes.max(initial=-1)) + 1)
    return ColumnCodes(
        names=names, codes=matrix, n_codes=tuple(cardinalities)
    )


# ----------------------------------------------------------------------
# Key detection
# ----------------------------------------------------------------------


def is_unique_key(column: Column) -> bool:
    """``True`` when every present value occurs exactly once and none miss.

    Blaeu's preprocessing removes primary keys before clustering; this
    is the whole-column detection predicate whose verdicts
    :class:`~repro.table.schema.KeyScan` reproduces with less reading.
    """
    if len(column) == 0 or column.n_missing:
        return False
    return column.n_distinct() == len(column)


# ----------------------------------------------------------------------
# External clustering indices
# ----------------------------------------------------------------------


def contingency(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Contingency matrix of two labelings (rows: a, columns: b)."""
    a = _as_codes(a)
    b = _as_codes(b)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape[0]} vs {b.shape[0]}")
    n_a = int(a.max()) + 1 if a.size else 0
    n_b = int(b.max()) + 1 if b.size else 0
    table = np.zeros((n_a, n_b), dtype=np.int64)
    np.add.at(table, (a, b), 1)
    return table


def adjusted_rand_index(a: np.ndarray, b: np.ndarray) -> float:
    """Hubert & Arabie's adjusted Rand index in ``[-1, 1]`` (1 = identical).

    Chance-corrected: two random labelings score ~0.
    """
    table = contingency(a, b)
    n = table.sum()
    if n <= 1:
        return 1.0
    sum_cells = (_choose2(table)).sum()
    sum_rows = _choose2(table.sum(axis=1)).sum()
    sum_cols = _choose2(table.sum(axis=0)).sum()
    expected = sum_rows * sum_cols / _choose2(np.asarray([n])).sum()
    maximum = 0.5 * (sum_rows + sum_cols)
    if maximum == expected:
        # Both labelings are single-cluster (or otherwise degenerate):
        # identical by construction.
        return 1.0
    return float((sum_cells - expected) / (maximum - expected))


def clustering_nmi(a: np.ndarray, b: np.ndarray) -> float:
    """Normalized mutual information between labelings (max-normalized)."""
    a = _as_codes(a)
    b = _as_codes(b)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape[0]} vs {b.shape[0]}")
    if a.size == 0:
        return 0.0
    h_a = shannon_entropy(a)
    h_b = shannon_entropy(b)
    ceiling = max(h_a, h_b)
    if ceiling <= 0:
        # Both single-cluster: identical partitions.
        return 1.0
    mi = max(0.0, h_a + h_b - joint_entropy(a, b))
    return float(min(1.0, mi / ceiling))


def purity(predicted: np.ndarray, truth: np.ndarray) -> float:
    """Fraction of points whose cluster's majority truth label matches theirs."""
    table = contingency(predicted, truth)
    total = table.sum()
    if total == 0:
        return 0.0
    return float(table.max(axis=1).sum() / total)


def _choose2(values: np.ndarray) -> np.ndarray:
    values = values.astype(np.float64)
    return values * (values - 1.0) / 2.0


def _as_codes(labels: np.ndarray) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError("labels must be one-dimensional")
    _, codes = np.unique(labels, return_inverse=True)
    return codes.astype(np.int64)


# ----------------------------------------------------------------------
# Monte-Carlo silhouette
# ----------------------------------------------------------------------


def monte_carlo_silhouette(
    points: np.ndarray,
    labels: np.ndarray,
    n_subsamples: int = 8,
    subsample_size: int = 200,
    *,
    rng: np.random.Generator,
) -> float:
    """Monte-Carlo estimate of the mean silhouette.

    Draws ``n_subsamples`` random subsets of ``subsample_size`` points,
    computes each subset's exact mean silhouette (over the subset's own
    distance matrix), and averages.  Cost is
    O(n_subsamples · subsample_size²) independent of n — this is the
    estimator the paper uses at interaction time.

    Subsamples whose points all share one label are skipped (their
    silhouette is undefined); if every draw degenerates the result is 0.
    """
    shared = SharedSilhouette(
        points,
        n_subsamples=n_subsamples,
        subsample_size=subsample_size,
        rng=rng,
    )
    return shared.score(labels)
