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
quantity the paper says PAM minimizes).

One kernel serves every caller: :func:`pam_batch` runs B independent
PAMs over a ``(B, n, n)`` stack of matrices as a handful of array
operations — BUILD and SWAP vectorised over the batch, the candidates
and the medoid positions, a converged run frozen while the others go on.
CLARA hands it one k's draws; :func:`pam` is its B = 1 case.  Every
result is bit-identical to running the runs one at a time: each
reduction keeps the memory orientation of the one-matrix formulation
(BUILD gains accumulate point by point, SWAP costs are pairwise sums
along a contiguous point axis), and the medoid-position scan keeps its
first-better-by-1e-12 rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.distance import validate_distance_matrix

__all__ = ["Clustering", "pam", "pam_batch", "canonical_order"]

#: SWAP evaluates medoid positions in blocks of at most this many
#: (run, position, candidate, point) costs — 1 MB of float64 — or one
#: position when that alone is more: at PAM scale above ~360 points a
#: block is a single position, and no temporary outgrows the ``c × n``
#: candidate gather that one position needs anyway.
_SWAP_BLOCK = 1 << 17

#: Safety cap on SWAP exchanges per run.  The algorithm normally
#: converges in far fewer; each exchange strictly decreases the cost, so
#: it cannot cycle.
MAX_SWAPS = 200


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
    stack = np.ascontiguousarray(distances)[None]
    medoids, labels, costs, n_swaps = pam_batch(stack, k)
    return Clustering(
        labels=labels[0],
        medoids=medoids[0],
        cost=float(costs[0]),
        n_iterations=int(n_swaps[0]),
    )


def pam_batch(
    distances: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """PAM on every matrix of a ``(B, n, n)`` stack, ``1 <= k < n``.

    Returns ``(medoids, labels, costs, n_swaps)`` of shapes ``(B, k)``,
    ``(B, n)``, ``(B,)`` and ``(B,)``, clusters in :func:`canonical_order`
    — row b is exactly what :func:`pam` returns for ``distances[b]``.
    Each run makes at most :data:`MAX_SWAPS` exchanges.  The matrices
    are trusted (no validation).
    """
    medoids = _build(distances, k)
    medoids, n_swaps = _swap(distances, medoids, MAX_SWAPS)
    labels, costs = _assign(distances, medoids)
    order = canonical_order(medoids, labels)
    runs = _column(medoids.shape[0])
    medoids = medoids[runs, np.argsort(order, axis=1)]
    return medoids, order[runs, labels], costs, n_swaps


def _build(distances: np.ndarray, k: int) -> np.ndarray:
    """BUILD phase: greedy selection of k initial medoids per matrix."""
    batch = distances.shape[0]
    runs = np.arange(batch)
    medoids = np.empty((batch, k), dtype=np.intp)
    # First medoid: the point minimizing total distance to all others.
    medoids[:, 0] = np.argmin(distances.sum(axis=2), axis=1)
    # Distance from each point to its nearest chosen medoid.
    nearest = distances[runs, :, medoids[:, 0]]
    scratch = np.empty_like(distances)
    for step in range(1, k):
        # Gain of choosing candidate c: sum over points j of
        # max(nearest[j] - d(j, c), 0), accumulated point by point.
        np.subtract(nearest[:, :, None], distances, out=scratch)
        np.maximum(scratch, 0.0, out=scratch)
        gains = scratch.sum(axis=1)
        gains[runs[:, None], medoids[:, :step]] = -np.inf
        medoids[:, step] = np.argmax(gains, axis=1)
        np.minimum(nearest, distances[runs, :, medoids[:, step]], out=nearest)
    return medoids


def _swap(
    distances: np.ndarray, medoids: np.ndarray, max_iter: int
) -> tuple[np.ndarray, np.ndarray]:
    """SWAP phase: steepest-descent medoid exchanges until local optimum.

    Every unconverged run performs one exchange per round; a run whose
    best exchange does not improve its cost leaves the batch.
    """
    medoids = medoids.copy()
    batch, n = distances.shape[:2]
    k = medoids.shape[1]
    n_swaps = np.zeros(batch, dtype=np.intp)
    active = np.arange(batch)
    points = np.arange(n)
    for _ in range(max_iter):
        if active.size == 0:
            break
        block = distances if active.size == batch else distances[active]
        runs = _column(active.size)
        current = medoids[active]
        # For each point: nearest and second-nearest medoid distances
        # (medoid-major: row p of a run holds every point's distance to
        # its medoid p).
        medoid_distances = block[runs, :, current]
        order = np.argsort(medoid_distances, axis=1)
        nearest_idx = order[:, 0]
        d_nearest = medoid_distances[runs, nearest_idx, points]
        if k > 1:
            d_second = medoid_distances[runs, order[:, 1], points]
        else:
            # float64 whatever the matrix dtype: with one medoid, float32
            # costs are summed in float64 (the one-matrix code did so).
            d_second = np.full(d_nearest.shape, np.inf)
        is_medoid = np.zeros((active.size, n), dtype=bool)
        is_medoid[runs, current] = True
        candidates = np.nonzero(~is_medoid)[1].reshape(active.size, n - k)

        deltas = _swap_deltas(block, candidates, k, nearest_idx, d_nearest, d_second)
        best_candidate = np.argmin(deltas, axis=2)
        best_value = deltas[runs, np.arange(k), best_candidate]
        # Positions in order; a later one wins only if better by 1e-12.
        swapped, positions = [], []
        for run, values in enumerate(best_value.tolist()):
            best_delta, best_position = 0.0, -1
            for position, delta in enumerate(values):
                if delta < best_delta - 1e-12:
                    best_delta, best_position = delta, position
            if best_position >= 0:
                swapped.append(run)
                positions.append(best_position)
        if not swapped:
            break

        replacement = candidates[swapped, best_candidate[swapped, positions]]
        active = active[swapped]
        medoids[active, positions] = replacement
        n_swaps[active] += 1
    return medoids, n_swaps


def _swap_deltas(
    block: np.ndarray,
    candidates: np.ndarray,
    k: int,
    nearest_idx: np.ndarray,
    d_nearest: np.ndarray,
    d_second: np.ndarray,
) -> np.ndarray:
    """Cost change of every (run, medoid position, candidate) exchange.

    Points whose nearest medoid is removed move to min(second nearest,
    candidate); the others to min(current nearest, candidate).  The
    candidate columns are gathered candidate-major — ``(A, c, n)``, the
    point axis contiguous — so each cost is a pairwise sum over points,
    as in the one-run formulation; a point-major gather would sum
    sequentially and break exact ties differently.
    """
    gathered = block[_column(block.shape[0]), :, candidates]
    current = d_nearest.sum(axis=1)[:, None, None]
    per_block = min(k, max(1, _SWAP_BLOCK // gathered.size))
    # One buffer for every block: at PAM scale a fresh multi-megabyte
    # temporary per position costs more in page faults than in arithmetic.
    new_d = np.empty(
        (gathered.shape[0], per_block) + gathered.shape[1:],
        dtype=np.result_type(gathered, d_nearest, d_second),
    )
    parts = []
    for start in range(0, k, per_block):
        positions = np.arange(start, min(start + per_block, k))
        loses = nearest_idx[:, None, :] == positions[:, None]
        floor = np.where(loses, d_second[:, None, :], d_nearest[:, None, :])
        out = new_d[:, : positions.size]
        np.minimum(gathered[:, None, :, :], floor[:, :, None, :], out=out)
        parts.append(out.sum(axis=3) - current)
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)


def _column(size: int) -> np.ndarray:
    """``arange(size)`` as a column, to index one row per run."""
    return np.arange(size)[:, None]


def _assign(
    distances: np.ndarray, medoids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Assign each point to its nearest medoid; return labels and costs."""
    runs = _column(medoids.shape[0])
    medoid_distances = distances[runs, :, medoids]  # medoid-major
    labels = np.argmin(medoid_distances, axis=1)
    # Medoids always belong to their own cluster (they are at distance 0
    # of themselves, so argmin already guarantees this absent ties).
    labels[runs, medoids] = np.arange(medoids.shape[1])
    points = np.arange(distances.shape[1])
    return labels, medoid_distances[runs, labels, points].sum(axis=1)


def canonical_order(medoids: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per run, the new id of each cluster: by decreasing size, then medoid.

    ``medoids`` is ``(B, k)`` and ``labels`` ``(B, n)``; row b of the
    result maps old cluster ids to new ones.  Gives deterministic,
    presentation-friendly cluster ids: cluster 0 is always the largest
    region on the map.
    """
    batch, k = medoids.shape
    runs = _column(batch)
    sizes = np.bincount((labels + k * runs).ravel(), minlength=batch * k)
    ranking = np.lexsort((medoids, -sizes.reshape(batch, k)), axis=-1)
    order = np.empty_like(ranking)
    order[runs, ranking] = np.arange(k)
    return order
