"""Lloyd's k-means — the baseline clustering algorithm.

The paper reports choosing PAM from "a dozen clustering algorithms from
the literature"; k-means is the natural baseline to compare it with
(it is faster but mean-based, so its centers are not data points
and it is more sensitive to outliers — the properties that motivated the
authors' choice of medoids).  Initialization is k-means++ (Arthur &
Vassilvitskii 2007).
"""

from __future__ import annotations

import numpy as np

from repro.cluster.distance import distances_to_points
from repro.cluster.pam import Clustering, canonical_order

__all__ = ["kmeans"]


def kmeans(
    points: np.ndarray,
    k: int,
    max_iter: int = 100,
    tol: float = 1e-6,
    *,
    rng: np.random.Generator,
) -> Clustering:
    """Cluster ``points`` into ``k`` groups with Lloyd's algorithm.

    Returns a :class:`~repro.cluster.pam.Clustering` for interface parity
    with PAM/CLARA; since k-means has no medoids, ``medoids`` holds the
    index of the point nearest each centroid and ``cost`` is the summed
    point-to-centroid Euclidean distance (not inertia), making costs
    comparable with PAM's.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError(f"points must be a 2-d matrix, got {points.shape}")
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")

    centroids = _kmeans_plus_plus(points, k, rng)
    labels = np.zeros(n, dtype=np.intp)
    n_iterations = 0
    for n_iterations in range(1, max_iter + 1):
        to_centroids = distances_to_points(points, centroids)
        labels = np.argmin(to_centroids, axis=1).astype(np.intp)
        new_centroids = centroids.copy()
        for cluster in range(k):
            members = points[labels == cluster]
            if members.shape[0]:
                new_centroids[cluster] = members.mean(axis=0)
            else:
                # Re-seed an empty cluster at the point farthest from its
                # centroid (standard remedy; keeps k clusters alive).
                worst = int(
                    np.argmax(to_centroids[np.arange(n), labels])
                )
                new_centroids[cluster] = points[worst]
        shift = float(np.abs(new_centroids - centroids).max())
        centroids = new_centroids
        if shift <= tol:
            break

    to_centroids = distances_to_points(points, centroids)
    labels = np.argmin(to_centroids, axis=1).astype(np.intp)
    cost = float(to_centroids[np.arange(n), labels].sum())
    nearest_points = np.argmin(to_centroids, axis=0).astype(np.intp)
    # Clusters by decreasing size, for deterministic presentation.
    order = canonical_order(nearest_points[None], labels[None])[0]
    return Clustering(
        labels=order[labels],
        medoids=nearest_points[np.argsort(order)],
        cost=cost,
        n_iterations=n_iterations,
    )


def _kmeans_plus_plus(
    points: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding: D²-weighted sampling of initial centroids."""
    n = points.shape[0]
    first = int(rng.integers(0, n))
    centroids = [points[first]]
    squared = distances_to_points(points, points[[first]]).ravel() ** 2
    for _ in range(1, k):
        total = squared.sum()
        if total <= 0:
            # All remaining points coincide with a centroid; pick uniformly.
            choice = int(rng.integers(0, n))
        else:
            choice = int(rng.choice(n, p=squared / total))
        centroids.append(points[choice])
        new_squared = (
            distances_to_points(points, points[[choice]]).ravel() ** 2
        )
        np.minimum(squared, new_squared, out=squared)
    return np.asarray(centroids)

