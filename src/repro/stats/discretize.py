"""Discretization of numeric columns for entropy-based estimators.

Mutual information over mixed data requires a discrete representation of
continuous columns.  The dependency graph bins numeric columns into
equal-frequency bins, because MI estimates from equal-frequency bins are
far less sensitive to outliers and skew (heavy-tailed indicators are
common in the paper's OECD data).  A binning is kept as its interior
cut points (:func:`equal_frequency_cuts`, drawn from a sample) and
applied to any rows later (:func:`apply_bin_cuts`); the bin count
follows Sturges' rule (:func:`suggest_bin_count`).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "suggest_bin_count",
    "equal_frequency_cuts",
    "apply_bin_cuts",
]

#: Code assigned to missing cells in discretized output.
MISSING_BIN = -1

#: The most bins a numeric column is cut into.
MAX_BINS = 32


def suggest_bin_count(n: int) -> int:
    """A bin count for ``n`` observations by Sturges' rule,
    ``ceil(log2(n) + 1)``, at least 1 and at most :data:`MAX_BINS`."""
    if n <= 1:
        return 1
    return min(int(math.ceil(math.log2(n) + 1)), MAX_BINS)


def equal_frequency_cuts(values: np.ndarray, n_bins: int) -> np.ndarray:
    """Interior cut points of ``n_bins`` equal-count bins over ``values``.

    Ties at quantile boundaries go to the lower bin, so heavily repeated
    values can make bins uneven; duplicate cut points are merged.  The
    resulting code range is ``[0, len(cuts)]`` under
    :func:`apply_bin_cuts`.
    """
    values = np.asarray(values, dtype=np.float64)
    _require_finite(values)
    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins}")
    if values.size == 0:
        return np.empty(0, dtype=np.float64)
    quantiles = np.linspace(0.0, 1.0, n_bins + 1)[1:-1]
    return np.unique(np.quantile(values, quantiles))


def apply_bin_cuts(values: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """Integer codes in ``[0, len(cuts)]`` for NaN-free ``values``.

    The inverse of the cut representation: values up to and including a
    cut point fall in the bin below it.  Out-of-range values (smaller or
    larger than anything the cuts were derived from) land in the first or
    last bin, so sample-derived cuts can encode the full column.
    """
    values = np.asarray(values, dtype=np.float64)
    cuts = np.asarray(cuts, dtype=np.float64)
    return np.searchsorted(cuts, values, side="right").astype(np.int32)


def _require_finite(values: np.ndarray) -> None:
    if values.size and not np.all(np.isfinite(values)):
        raise ValueError(
            "binning requires finite values; filter the missing mask first"
        )
