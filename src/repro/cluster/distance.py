"""Distance computations over feature matrices.

PAM and the silhouette both work on a dissimilarity matrix, so this module
is the substrate under all horizontal and vertical clustering: dense
**Euclidean** distances over the normalised features the preprocessing
stage builds (z-scored continuous variables + dummy-coded categories),
in float64.

The kernels also take a *stack* of point sets, ``(B, n, d)`` →
``(B, n, n)`` (and :func:`distances_to_points` a stack of reference
sets), so CLARA assigns all its draws in one call.  Slice b of a
stacked result is bit-identical to the kernel run on slice b alone:
every step is elementwise or reduces one row, and the products are one
BLAS call per slice inside a single ``matmul``.  The Monte-Carlo
silhouette subsamples are *not* stacked: their ``n × n`` results are
large enough that a stack runs slower than one call each (see
:class:`~repro.cluster.silhouette.SharedSilhouette`).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "pairwise_distances",
    "distances_to_points",
]

#: dtypes a distance matrix is checked in without promotion.
_ALLOWED_DTYPES = (np.float32, np.float64)


def pairwise_distances(points: np.ndarray) -> np.ndarray:
    """Dense n×n Euclidean distance matrix (``(B, n, n)`` for a stack).

    Uses the Gram-matrix expansion ``||a-b||² = ||a||² + ||b||² − 2a·b``
    with clipping against negative rounding; exact enough for clustering
    while an order of magnitude faster than pairwise loops.
    """
    points = _as_points(points)
    squared_norms = (points**2).sum(axis=-1)
    gram = points @ points.swapaxes(-1, -2)
    squared = squared_norms[..., :, None] + squared_norms[..., None, :]
    gram *= 2.0
    squared -= gram
    np.maximum(squared, 0.0, out=squared)
    np.sqrt(squared, out=squared)
    diagonal = np.arange(points.shape[-2])
    squared[..., diagonal, diagonal] = 0.0
    return squared


def distances_to_points(points: np.ndarray, references: np.ndarray) -> np.ndarray:
    """n×m Euclidean distances from each point to each reference point.

    The CLARA assignment step needs point-to-medoid (not full
    pairwise) distances.  A ``(B, m, d)``
    stack of reference sets gives ``(B, n, m)``: CLARA assigns all its
    draws in one call, sharing the point norms.

    The result is a transposed view of a reference-major ``(…, m, n)``
    array: with few references, the elementwise steps then run along the
    long point axis, and a reduction over references is one pass per
    reference.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {points.shape}")
    references = _as_points(references)
    if points.shape[1] != references.shape[-1]:
        raise ValueError(
            f"dimensionality mismatch: {points.shape[1]} vs {references.shape[-1]}"
        )
    point_norms = (points**2).sum(axis=1)
    reference_norms = (references**2).sum(axis=-1)
    cross = 2.0 * points @ references.swapaxes(-1, -2)
    squared = reference_norms[..., :, None] + point_norms
    squared -= cross.swapaxes(-1, -2)
    np.maximum(squared, 0.0, out=squared)
    np.sqrt(squared, out=squared)
    return squared.swapaxes(-1, -2)


def _as_points(points: np.ndarray) -> np.ndarray:
    """A float64 point matrix or a ``(B, n, d)`` stack of them."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim not in (2, 3):
        raise ValueError(
            f"expected a 2-d matrix or a stack of them, got shape {points.shape}"
        )
    return points


def validate_distance_matrix(matrix: np.ndarray) -> np.ndarray:
    """Check symmetry, zero diagonal and non-negativity.

    Floating-point matrices keep their dtype; everything else is
    promoted to float64.
    """
    matrix = np.asarray(matrix)
    if matrix.dtype.type not in _ALLOWED_DTYPES:
        matrix = matrix.astype(np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"distance matrix must be square, got {matrix.shape}")
    if matrix.size:
        atol = 1e-9 if matrix.dtype == np.float64 else 1e-4
        if not np.allclose(matrix, matrix.T, atol=atol):
            raise ValueError("distance matrix must be symmetric")
        if not np.allclose(np.diag(matrix), 0.0, atol=atol):
            raise ValueError("distance matrix must have a zero diagonal")
        if matrix.min() < -1e-12:
            raise ValueError("distance matrix must be non-negative")
    return matrix
