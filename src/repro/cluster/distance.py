"""Distance computations over feature matrices.

PAM and the silhouette both work on a dissimilarity matrix, so this module
is the substrate under all horizontal and vertical clustering.  It offers:

* dense pairwise **Euclidean** / **Manhattan** distances (vectorized),
* **Gower** distance for mixed numeric/binary features with missing
  values — the classic choice for k-medoids over mixed data and the
  natural companion of the paper's preprocessing (normalized continuous
  variables + dummy-coded categories).

Every dense kernel accepts an optional ``dtype``: ``float32`` halves the
memory traffic of the n×n matrices and roughly doubles throughput on
memory-bound shapes, at a bounded accuracy cost (see the accuracy tests).
The default stays ``float64``.

The Euclidean and Manhattan kernels also take a *stack* of point sets,
``(B, n, d)`` → ``(B, n, n)`` (and :func:`distances_to_points` a stack of
reference sets), so CLARA's draws and the Monte-Carlo subsamples are one
call each.  Slice b of a stacked result is bit-identical to the kernel
run on slice b alone: every step is elementwise or reduces one row, and
the products are one BLAS call per slice inside a single ``matmul``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "euclidean_distances",
    "manhattan_distances",
    "gower_distances",
    "pairwise_distances",
    "distances_to_points",
    "resolve_dtype",
]

#: dtypes the distance kernels may compute in.
_ALLOWED_DTYPES = (np.float32, np.float64)


def resolve_dtype(dtype: object) -> np.dtype:
    """Normalize a dtype knob (``None``/str/np.dtype) to float32/float64."""
    if dtype is None:
        return np.dtype(np.float64)
    resolved = np.dtype(dtype)
    if resolved.type not in _ALLOWED_DTYPES:
        raise ValueError(
            f"distance dtype must be float32 or float64, got {resolved}"
        )
    return resolved


def euclidean_distances(points: np.ndarray, dtype: object = None) -> np.ndarray:
    """Dense n×n Euclidean distance matrix (``(B, n, n)`` for a stack).

    Uses the Gram-matrix expansion ``||a-b||² = ||a||² + ||b||² − 2a·b``
    with clipping against negative rounding; exact enough for clustering
    while an order of magnitude faster than pairwise loops.
    """
    points = _as_points(points, dtype)
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


def manhattan_distances(points: np.ndarray, dtype: object = None) -> np.ndarray:
    """Dense n×n Manhattan (L1) distance matrix (``(B, n, n)`` for a stack).

    Accumulates one feature at a time into a single reused n×n scratch
    buffer: peak memory is two n×n arrays total (output + scratch), not a
    fresh broadcast temporary per feature.
    """
    points = _as_points(points, dtype)
    n = points.shape[-2]
    out = np.zeros(points.shape[:-1] + (n,), dtype=points.dtype)
    scratch = np.empty_like(out)
    for j in range(points.shape[-1]):
        column = points[..., j]
        np.subtract(column[..., :, None], column[..., None, :], out=scratch)
        np.abs(scratch, out=scratch)
        out += scratch
    return out


def gower_distances(
    points: np.ndarray,
    numeric_mask: np.ndarray | None = None,
    ranges: np.ndarray | None = None,
    dtype: object = None,
) -> np.ndarray:
    """Gower's general dissimilarity for mixed features with missing values.

    For each feature, the per-pair contribution is ``|a−b| / range`` when
    numeric and ``a != b`` when binary/categorical; missing cells make a
    feature drop out of that pair's average.  Pairs with no shared present
    feature get the maximal distance 1.

    Parameters
    ----------
    points:
        n×d matrix; NaN marks missing cells.
    numeric_mask:
        Boolean length-d mask, ``True`` for numeric features (default all).
    ranges:
        Per-feature ranges for scaling; computed from the data if omitted.
    dtype:
        Output dtype; the accumulation itself stays float64 because the
        per-pair averages mix range-scaled magnitudes.
    """
    out_dtype = resolve_dtype(dtype)
    points = _as_matrix(points)
    n, d = points.shape
    if numeric_mask is None:
        numeric_mask = np.ones(d, dtype=bool)
    numeric_mask = np.asarray(numeric_mask, dtype=bool)
    if numeric_mask.shape != (d,):
        raise ValueError("numeric_mask must have one entry per feature")
    if ranges is None:
        with np.errstate(all="ignore"):
            highs = np.nanmax(points, axis=0)
            lows = np.nanmin(points, axis=0)
        ranges = np.where(np.isfinite(highs - lows), highs - lows, 0.0)
    ranges = np.asarray(ranges, dtype=np.float64)

    numerator = np.zeros((n, n), dtype=np.float64)
    weight = np.zeros((n, n), dtype=np.float64)
    for j in range(d):
        column = points[:, j]
        present = ~np.isnan(column)
        pair_present = present[:, None] & present[None, :]
        if numeric_mask[j]:
            if ranges[j] <= 0:
                contribution = np.zeros((n, n), dtype=np.float64)
            else:
                diff = np.abs(column[:, None] - column[None, :]) / ranges[j]
                contribution = np.where(pair_present, diff, 0.0)
        else:
            unequal = column[:, None] != column[None, :]
            contribution = np.where(pair_present, unequal.astype(np.float64), 0.0)
        numerator += contribution
        weight += pair_present
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(weight > 0, numerator / weight, 1.0)
    np.fill_diagonal(out, 0.0)
    return out.astype(out_dtype, copy=False)


def pairwise_distances(
    points: np.ndarray, metric: str = "euclidean", dtype: object = None
) -> np.ndarray:
    """Dispatch to a named metric (``euclidean``, ``manhattan``, ``gower``).

    The first two also turn a ``(B, n, d)`` stack into a ``(B, n, n)`` one.
    """
    if metric == "euclidean":
        return euclidean_distances(points, dtype=dtype)
    if metric == "manhattan":
        return manhattan_distances(points, dtype=dtype)
    if metric == "gower":
        return gower_distances(points, dtype=dtype)
    raise ValueError(f"unknown metric {metric!r}")


def distances_to_points(
    points: np.ndarray,
    references: np.ndarray,
    metric: str = "euclidean",
    dtype: object = None,
) -> np.ndarray:
    """n×m distances from each point to each reference point.

    The CLARA assignment step needs point-to-medoid (not full
    pairwise) distances.  A ``(B, m, d)``
    stack of reference sets gives ``(B, n, m)``: CLARA assigns all its
    draws in one call, sharing the point norms.

    The result is a transposed view of a reference-major ``(…, m, n)``
    array: with few references, the elementwise steps then run along the
    long point axis, and a reduction over references is one pass per
    reference.
    """
    points = _as_matrix(points, dtype)
    references = _as_points(references, dtype)
    if points.shape[1] != references.shape[-1]:
        raise ValueError(
            f"dimensionality mismatch: {points.shape[1]} vs {references.shape[-1]}"
        )
    if metric == "euclidean":
        point_norms = (points**2).sum(axis=1)
        reference_norms = (references**2).sum(axis=-1)
        cross = 2.0 * points @ references.swapaxes(-1, -2)
        squared = reference_norms[..., :, None] + point_norms
        squared -= cross.swapaxes(-1, -2)
        np.maximum(squared, 0.0, out=squared)
        np.sqrt(squared, out=squared)
        return squared.swapaxes(-1, -2)
    if metric == "manhattan":
        out = np.zeros(references.shape[:-1] + points.shape[:1], dtype=points.dtype)
        scratch = np.empty_like(out)
        for j in range(points.shape[1]):
            np.subtract(points[:, j], references[..., j][..., :, None], out=scratch)
            np.abs(scratch, out=scratch)
            out += scratch
        return out.swapaxes(-1, -2)
    raise ValueError(f"unknown metric {metric!r} for point-to-point distances")


def _as_matrix(points: np.ndarray, dtype: object = None) -> np.ndarray:
    points = np.asarray(points, dtype=resolve_dtype(dtype))
    if points.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {points.shape}")
    return points


def _as_points(points: np.ndarray, dtype: object = None) -> np.ndarray:
    """A point matrix or a ``(B, n, d)`` stack of them."""
    points = np.asarray(points, dtype=resolve_dtype(dtype))
    if points.ndim not in (2, 3):
        raise ValueError(
            f"expected a 2-d matrix or a stack of them, got shape {points.shape}"
        )
    return points


def validate_distance_matrix(matrix: np.ndarray) -> np.ndarray:
    """Check symmetry, zero diagonal and non-negativity.

    Floating-point matrices keep their dtype (so float32 pipelines stay
    float32 end-to-end); everything else is promoted to float64.
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
