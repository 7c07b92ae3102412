"""External clustering-quality indices (evaluation only).

These are not part of Blaeu's runtime — the paper's engine never sees
ground truth.  ``tests/paper/`` uses them to quantify the claims:
ARI measures how well a sampled map matches the full-data map
(§3 "the loss of accuracy is minimal"), NMI measures recovery of planted
themes, purity is the human-friendly summary.
"""

from __future__ import annotations

import numpy as np

from repro.stats.entropy import joint_entropy, shannon_entropy

__all__ = ["adjusted_rand_index", "clustering_nmi", "purity", "contingency"]


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
