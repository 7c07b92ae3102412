"""Silhouette coefficients — exact and Monte-Carlo (Rousseeuw 1987).

The silhouette drives two things in Blaeu: it tells users how crisp each
region is, and it selects the number of clusters k.  Because the exact
statistic is O(n²), the paper "computes the silhouette scores in a
Monte-Carlo fashion: it extracts a few sub-samples from the user's
selection, computes the clustering quality of those, and averages the
results" (§3).  Both estimators live here, in
:class:`SharedSilhouette` — the structure k selection scores every
candidate against: the distance matrices (full, or one per subsample)
are computed **once per feature matrix** and reused across all k.

One kernel scores every matrix: :func:`_silhouettes` takes a list of
matrices with one labelling each (the Monte-Carlo subsamples, or a
single full matrix) and scores them together.  Its cluster sums add each
cluster's members in index order, one at a time — the order a
per-cluster column gather reduces in — so every value is bit-identical
to scoring the matrices one by one.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.cluster.distance import pairwise_distances, validate_distance_matrix

__all__ = [
    "silhouette_samples",
    "mean_silhouette",
    "SharedSilhouette",
]


def silhouette_samples(
    distances: np.ndarray, labels: np.ndarray, validate: bool = True
) -> np.ndarray:
    """Per-point silhouette values ``s(i) = (b_i − a_i) / max(a_i, b_i)``.

    ``a_i`` is the mean distance to the point's own cluster (excluding
    itself), ``b_i`` the smallest mean distance to any other cluster.
    Points in singleton clusters get ``s(i) = 0`` by Rousseeuw's
    convention, and so does every point when there is a single cluster.
    Values lie in ``[-1, 1]``.  ``validate=False`` skips the O(n²)
    matrix check when the caller scores many labelings of one
    already-checked matrix.
    """
    if validate:
        distances = validate_distance_matrix(distances)
    else:
        distances = np.asarray(distances)
    labels = np.asarray(labels)
    n = distances.shape[0]
    if labels.shape != (n,):
        raise ValueError(
            f"labels shape {labels.shape} does not match matrix size {n}"
        )
    values, _ = _silhouettes([_member_major(distances)], _codes(labels)[None])
    return values[0]


def mean_silhouette(
    distances: np.ndarray, labels: np.ndarray, validate: bool = True
) -> float:
    """The average silhouette width — the paper's model-selection score."""
    values = silhouette_samples(distances, labels, validate=validate)
    return float(values.mean()) if values.size else 0.0


class SharedSilhouette:
    """Silhouette scorer whose distance work is done once, not once per k.

    k selection evaluates the same point set under many labelings (one
    per candidate k).  The distance matrices those evaluations need
    depend only on the *points*, so this class computes them a single
    time at construction:

    * **exact mode** (``n <= max(exact_threshold, subsample_size)``): the
      full pairwise matrix, validated once; every :meth:`score` is the
      exact mean silhouette.
    * **sampled mode** (above the row threshold): ``n_subsamples`` index
      sets are drawn once and each subsample's distance matrix cached;
      :meth:`score` averages the exact silhouettes of the subsamples —
      the paper's Monte-Carlo estimator, minus the repeated matrix
      builds, scored as one batch.

    A caller that already owns the full matrix (e.g. the mapping engine,
    which feeds it to PAM) passes it via ``distances`` and gets exact
    scoring for free.  Exact mode never draws from ``rng``.
    """

    def __init__(
        self,
        points: np.ndarray,
        n_subsamples: int = 8,
        subsample_size: int = 200,
        exact_threshold: int | None = None,
        *,
        rng: np.random.Generator,
        distances: np.ndarray | None = None,
    ) -> None:
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2:
            raise ValueError(f"points must be a 2-d matrix, got {points.shape}")
        if n_subsamples < 1:
            raise ValueError(f"n_subsamples must be >= 1, got {n_subsamples}")
        if subsample_size < 2:
            raise ValueError(f"subsample_size must be >= 2, got {subsample_size}")
        n = points.shape[0]
        self.n_points = n
        threshold = max(
            exact_threshold if exact_threshold is not None else 0, subsample_size
        )

        self._full: np.ndarray | None = None
        self._chosen: np.ndarray | None = None
        if distances is not None:
            distances = np.asarray(distances)
            if distances.shape != (n, n):
                raise ValueError(
                    f"distances shape {distances.shape} does not match "
                    f"{n} points"
                )
            self._full = distances
        elif n <= threshold:
            self._full = pairwise_distances(points)
        if self._full is not None:
            self._columns = [_member_major(self._full)]
        else:
            self._chosen = np.stack([
                rng.choice(n, size=subsample_size, replace=False)
                for _ in range(n_subsamples)
            ])
            # One call per subsample, not one over the (B, m, d) stack:
            # the stack's elementwise passes leave the cache, which made
            # the scorer slower (6.5 vs 5.1 ms at 8 × 200 rows) and its
            # peak allocation larger (5.2 vs 2.9 MB).
            self._columns = [
                _member_major(pairwise_distances(points[chosen]))
                for chosen in self._chosen
            ]

    @property
    def exact(self) -> bool:
        """Whether scores are exact (full matrix) or Monte-Carlo."""
        return self._full is not None

    @property
    def matrix(self) -> np.ndarray | None:
        """The full distance matrix in exact mode (``None`` when sampled)."""
        return self._full

    def score(self, labels: np.ndarray) -> float:
        """Mean silhouette of ``labels`` over the precomputed distances."""
        labels = np.asarray(labels)
        if labels.shape != (self.n_points,):
            raise ValueError("labels must align with points")
        codes = _codes(labels)
        if self._chosen is None:
            values, _ = _silhouettes(self._columns, codes[None])
            return float(values[0].mean()) if values.size else 0.0
        values, defined = _silhouettes(self._columns, codes[self._chosen])
        if not defined.any():
            return 0.0
        return float(values[defined].mean(axis=1).mean())


def _codes(labels: np.ndarray) -> np.ndarray:
    """Labels as non-negative codes that rank like the labels.

    Cluster ids already are such codes (a gap is a cluster with no
    member, which scores as absent); anything else is ranked.
    """
    if (
        labels.dtype.kind in "iu"
        and labels.size
        and labels.min() >= 0
        and labels.max() < labels.size
    ):
        return labels
    return np.unique(labels, return_inverse=True)[1].reshape(labels.shape)


def _member_major(distances: np.ndarray) -> np.ndarray:
    """The matrix with row j holding every point's distance *to* point j."""
    if np.array_equal(distances, distances.T):
        return distances
    return np.ascontiguousarray(distances.T)


def _silhouettes(
    columns: Sequence[np.ndarray], codes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-point silhouettes of S labelled matrices, scored together.

    ``columns`` holds S member-major m×m matrices (``columns[s][j, i]``
    is the distance from point i to point j), ``codes`` the ``(S, m)``
    cluster codes.  Returns the ``(S, m)`` values and which of the S
    labellings have at least two clusters; the others score all-zero.
    """
    n_sets, m = codes.shape
    n_codes = int(codes.max()) + 1 if codes.size else 1
    sets = np.arange(n_sets)[:, None]
    points = np.arange(m)
    counts = np.bincount(
        (codes + n_codes * sets).ravel(), minlength=n_sets * n_codes
    ).reshape(n_sets, n_codes)

    # Sum of distances from every point to every cluster.  One gather
    # per matrix puts each cluster's member rows next to each other, in
    # index order; each slice then reduces along its rows, adding one
    # member at a time.  (Matrices are gathered one by one: a stacked
    # gather is a multi-megabyte temporary, slower than eight small ones.)
    small = codes.astype(np.min_scalar_type(n_codes))  # radix-sortable
    member_order = np.argsort(small, axis=1, kind="stable")
    sums = np.zeros((n_sets, n_codes, m), dtype=columns[0].dtype)
    for index, set_counts in enumerate(counts.tolist()):
        member_rows = columns[index][member_order[index]]
        start = 0
        for code, count in enumerate(set_counts):
            if count:
                stop = start + count
                np.add.reduce(member_rows[start:stop], axis=0, out=sums[index, code])
                start = stop
    sums = sums.astype(np.float64, copy=False)
    counts = counts.astype(np.float64)

    own = (sets, codes, points)
    own_counts = counts[sets, codes]
    with np.errstate(invalid="ignore", divide="ignore"):
        # a_i: exclude the point itself from its own-cluster average.
        a = sums[own] / np.maximum(own_counts - 1, 1)
        # b_i: min over other (present) clusters of mean distance.
        means = sums / counts[:, :, None]
        means[counts == 0] = np.inf
        means[own] = np.inf
        b = means.min(axis=1)
        denominator = np.maximum(a, b)
        values = (b - a) / denominator
    defined = np.count_nonzero(counts, axis=1) >= 2
    valid = (own_counts > 1) & (denominator > 0) & defined[:, None]
    return np.clip(np.where(valid, values, 0.0), -1.0, 1.0), defined
