"""Partitioning Around Medoids (Kaufman & Rousseeuw 1990, ch. 2).

PAM is the paper's clustering workhorse for both themes and maps.  It
operates purely on a dissimilarity matrix, which is why Blaeu can apply it
to column dependency graphs and tuple feature spaces alike.

The implementation follows the book's two phases:

* **BUILD** — greedily pick k initial medoids, each maximizing the total
  dissimilarity *decrease* over the current configuration;
* **SWAP** — repeatedly evaluate every (medoid, non-medoid) exchange and
  perform the one with the largest cost reduction, until no exchange
  improves the cost.

Cost is the sum of dissimilarities from each point to its medoid (the
quantity the paper says PAM minimizes).  The SWAP evaluation is vectorized
over candidates, giving O(k·n²) per iteration without Python-loop overhead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.distance import validate_distance_matrix

__all__ = ["Clustering", "pam"]


@dataclass(frozen=True)
class Clustering:
    """The result of a medoid-based clustering.

    Attributes
    ----------
    labels:
        For each point, the index (``0..k-1``) of its cluster.
    medoids:
        For each cluster, the index of its medoid point.  For CLARA runs
        these index the *full* dataset, not the sample.
    cost:
        Total dissimilarity between points and their medoids.
    n_iterations:
        Number of SWAP exchanges performed (0 for degenerate cases).
    """

    labels: np.ndarray
    medoids: np.ndarray
    cost: float
    n_iterations: int = 0

    @property
    def k(self) -> int:
        """Number of clusters."""
        return int(self.medoids.shape[0])

    def sizes(self) -> np.ndarray:
        """Cluster sizes, indexed by cluster id."""
        return np.bincount(self.labels, minlength=self.k)

    def members(self, cluster: int) -> np.ndarray:
        """Point indices belonging to ``cluster``."""
        if not 0 <= cluster < self.k:
            raise IndexError(f"cluster {cluster} out of range [0, {self.k})")
        return np.flatnonzero(self.labels == cluster)


def pam(
    distances: np.ndarray,
    k: int,
    max_iter: int = 200,
    validate: bool = True,
) -> Clustering:
    """Cluster the points of a dissimilarity matrix around ``k`` medoids.

    Deterministic given the matrix: PAM draws no randomness.

    Parameters
    ----------
    distances:
        Symmetric n×n dissimilarity matrix with zero diagonal.
    k:
        Number of clusters, ``1 <= k <= n``.
    max_iter:
        Safety cap on SWAP exchanges (the algorithm normally converges in
        far fewer; each exchange strictly decreases the cost, so it cannot
        cycle).
    validate:
        Check the matrix (symmetry, zero diagonal, non-negativity) before
        clustering.  Hot paths that build the matrix with
        :func:`~repro.cluster.distance.pairwise_distances` skip the O(n²)
        re-check by passing ``False``.
    """
    if validate:
        distances = validate_distance_matrix(distances)
    else:
        distances = np.asarray(distances)
    n = distances.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if k == n:
        labels = np.arange(n, dtype=np.intp)
        return Clustering(labels=labels, medoids=labels.copy(), cost=0.0)

    medoids = _build(distances, k)
    medoids, n_swaps = _swap(distances, medoids, max_iter)
    labels, cost = _assign(distances, medoids)
    order = _canonical_order(medoids, labels)
    return Clustering(
        labels=order[labels],
        medoids=medoids[np.argsort(order)],
        cost=cost,
        n_iterations=n_swaps,
    )


def _build(distances: np.ndarray, k: int) -> np.ndarray:
    """BUILD phase: greedy selection of k initial medoids."""
    n = distances.shape[0]
    # First medoid: the point minimizing total distance to all others.
    totals = distances.sum(axis=1)
    medoids = [int(np.argmin(totals))]
    # Distance from each point to its nearest chosen medoid.
    nearest = distances[:, medoids[0]].copy()
    while len(medoids) < k:
        # Gain of choosing candidate c: sum over points j of
        # max(nearest[j] - d(j, c), 0).
        gains = np.maximum(nearest[:, None] - distances, 0.0).sum(axis=0)
        gains[medoids] = -np.inf
        chosen = int(np.argmax(gains))
        medoids.append(chosen)
        np.minimum(nearest, distances[:, chosen], out=nearest)
    return np.asarray(medoids, dtype=np.intp)


def _swap(
    distances: np.ndarray, medoids: np.ndarray, max_iter: int
) -> tuple[np.ndarray, int]:
    """SWAP phase: steepest-descent medoid exchanges until local optimum."""
    medoids = medoids.copy()
    n = distances.shape[0]
    n_swaps = 0
    for _ in range(max_iter):
        medoid_distances = distances[:, medoids]  # n x k
        # For each point: nearest and second-nearest medoid distances.
        order = np.argsort(medoid_distances, axis=1)
        nearest_idx = order[:, 0]
        d_nearest = medoid_distances[np.arange(n), nearest_idx]
        if medoids.shape[0] > 1:
            second_idx = order[:, 1]
            d_second = medoid_distances[np.arange(n), second_idx]
        else:
            d_second = np.full(n, np.inf)

        best_delta = 0.0
        best_swap: tuple[int, int] | None = None
        is_medoid = np.zeros(n, dtype=bool)
        is_medoid[medoids] = True
        candidates = np.flatnonzero(~is_medoid)
        if candidates.size == 0:
            break

        d_candidates = distances[:, candidates]  # n x c
        for position in range(medoids.shape[0]):
            # Cost change of replacing medoid `position` by each candidate.
            loses_medoid = nearest_idx == position
            # Points whose nearest medoid is being removed move to
            # min(second nearest, candidate); others to
            # min(current nearest, candidate).
            floor = np.where(loses_medoid, d_second, d_nearest)
            new_d = np.minimum(d_candidates, floor[:, None])
            deltas = new_d.sum(axis=0) - d_nearest.sum()
            best_candidate = int(np.argmin(deltas))
            delta = float(deltas[best_candidate])
            if delta < best_delta - 1e-12:
                best_delta = delta
                best_swap = (position, int(candidates[best_candidate]))

        if best_swap is None:
            break
        position, replacement = best_swap
        medoids[position] = replacement
        n_swaps += 1
    return medoids, n_swaps


def _assign(
    distances: np.ndarray, medoids: np.ndarray
) -> tuple[np.ndarray, float]:
    """Assign each point to its nearest medoid; return labels and cost."""
    medoid_distances = distances[:, medoids]
    labels = np.argmin(medoid_distances, axis=1).astype(np.intp)
    # Medoids always belong to their own cluster (they are at distance 0
    # of themselves, so argmin already guarantees this absent ties).
    for position, medoid in enumerate(medoids):
        labels[medoid] = position
    cost = float(medoid_distances[np.arange(distances.shape[0]), labels].sum())
    return labels, cost


def _canonical_order(medoids: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Relabel clusters by decreasing size (ties: by medoid index).

    Gives deterministic, presentation-friendly cluster ids: cluster 0 is
    always the largest region on the map.
    """
    k = medoids.shape[0]
    sizes = np.bincount(labels, minlength=k)
    ranking = sorted(range(k), key=lambda c: (-int(sizes[c]), int(medoids[c])))
    order = np.empty(k, dtype=np.intp)
    for new_id, old_id in enumerate(ranking):
        order[old_id] = new_id
    return order
