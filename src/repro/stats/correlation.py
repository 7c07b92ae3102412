"""Correlation coefficients — the dependency measures the paper mentions
as alternatives to mutual information ("we could have used any function
from the literature, such as the correlation coefficient", §3).

Pearson's and Spearman's r are computed for all column pairs at once.
Both drop pairwise-incomplete rows and return 0 for degenerate inputs
(constant vectors, too few rows), matching the NMI kernel's "no
evidence" convention so the dependency graph can swap measures freely.
"""

from __future__ import annotations

import numpy as np

__all__ = ["pairwise_correlation_matrix"]

#: Below this many pairwise-complete rows a correlation is reported as 0.
MIN_COMPLETE_ROWS = 3


def pairwise_correlation_matrix(
    matrix: np.ndarray, rank: bool = False
) -> np.ndarray:
    """All-pairs pairwise-complete correlation over the columns of ``matrix``.

    ``matrix`` is ``(n_rows, n_columns)`` float64 with NaN marking
    missing cells.  The masked-product formulation evaluates every
    pair's Pearson r over exactly its complete rows in a handful of
    matrix multiplications — the vectorized replacement for the
    dependency graph's per-pair Python loop.  Degenerate pairs (fewer
    than :data:`MIN_COMPLETE_ROWS` complete rows, or zero variance on
    either side) get 0, matching the one-pair Pearson r.

    With ``rank=True``, each column is mid-ranked once over its present
    rows before correlating (casewise ranks with pairwise deletion).
    This differs from a one-pair Spearman r — which re-ranks each pair's
    complete rows from scratch — only when missing patterns differ
    between columns; on complete data the two agree.
    """
    values = np.array(matrix, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError("matrix must be two-dimensional")
    if rank:
        for j in range(values.shape[1]):
            present = ~np.isnan(values[:, j])
            values[present, j] = _midranks(values[present, j])
    present = ~np.isnan(values)
    # Center by the column mean over present rows: algebraically neutral
    # for the product-moment formula, numerically vital against
    # catastrophic cancellation when values sit far from zero.
    with np.errstate(invalid="ignore"):
        counts = present.sum(axis=0)
        sums = np.where(present, values, 0.0).sum(axis=0)
        means = np.divide(
            sums,
            counts,
            out=np.zeros_like(sums),
            where=counts > 0,
        )
    centered = np.where(present, values - means, 0.0)
    mask = present.astype(np.float64)

    n = mask.T @ mask
    sum_x = centered.T @ mask
    sum_xy = centered.T @ centered
    sum_xx = (centered * centered).T @ mask
    covariance = n * sum_xy - sum_x * sum_x.T
    variance_x = n * sum_xx - sum_x**2
    with np.errstate(divide="ignore", invalid="ignore"):
        r = covariance / np.sqrt(variance_x * variance_x.T)
    ok = (
        (n >= MIN_COMPLETE_ROWS) & (variance_x > 0.0) & (variance_x.T > 0.0)
    )
    return np.clip(np.where(ok, r, 0.0), -1.0, 1.0)


def _midranks(values: np.ndarray) -> np.ndarray:
    """Mid-ranks (average rank for ties), 1-based."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=np.float64)
    ranks[order] = np.arange(1, values.size + 1, dtype=np.float64)
    # Average the ranks of tied runs.
    sorted_values = values[order]
    i = 0
    while i < sorted_values.size:
        j = i
        while j + 1 < sorted_values.size and sorted_values[j + 1] == sorted_values[i]:
            j += 1
        if j > i:
            tied = order[i : j + 1]
            ranks[tied] = ranks[tied].mean()
        i = j + 1
    return ranks
