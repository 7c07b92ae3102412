"""CLARA — Clustering LARge Applications (Kaufman & Rousseeuw 1990, ch. 3).

"When the data is too large, Blaeu creates the maps with CLARA, a
sampling-based variant of the PAM algorithm" (§3).  CLARA draws several
modest samples, runs PAM on each, extends each sample's medoids to the
whole dataset, and keeps the medoid set with the lowest *full-data* cost.
The quadratic PAM work is confined to the sample, so the overall cost is
O(draws · (s² + k·n)) instead of PAM's O(k·n²).

Each draw owns a child generator spawned from the caller's RNG
(``rng.spawn``), so its rows are a function of the seed and the draw
index alone.  The draws then run as one array program: their sample
matrices form a ``(draws, s, s)`` stack for the batched PAM kernel, and
all medoid sets are assigned to the full data in one call — bit-identical
to running the draws one by one.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.distance import distances_to_points, pairwise_distances
from repro.cluster.pam import Clustering, canonical_order, pam, pam_batch
from repro.obs.trace import get_tracer
from repro.resilience.deadline import checkpoint

__all__ = ["clara"]


#: Kaufman & Rousseeuw's recommended sample size: 40 + 2k.
def default_sample_size(k: int) -> int:
    """The book's recommendation for the per-draw sample size."""
    return 40 + 2 * k


def clara(
    points: np.ndarray,
    k: int,
    n_draws: int = 5,
    sample_size: int | None = None,
    *,
    rng: np.random.Generator,
) -> Clustering:
    """Cluster a large point matrix around ``k`` medoids via sampling.

    Parameters
    ----------
    points:
        n×d feature matrix (no NaN; preprocess first).
    k:
        Number of clusters.
    n_draws:
        Number of independent samples; the best full-data cost wins.
        Kaufman & Rousseeuw recommend 5.
    sample_size:
        Rows per draw; defaults to ``40 + 2k``.  Clamped to n.
    rng:
        Source of sampling randomness.  Each draw gets its own child
        generator spawned from it.

    Returns
    -------
    Clustering
        ``medoids`` index the full ``points`` matrix; ``labels`` cover all
        n points; ``cost`` is the full-data cost of the winning draw;
        ``n_iterations`` counts the winning draw's SWAP exchanges.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError(f"points must be a 2-d matrix, got {points.shape}")
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if n_draws < 1:
        raise ValueError(f"n_draws must be >= 1, got {n_draws}")
    if sample_size is None:
        sample_size = default_sample_size(k)
    sample_size = min(max(sample_size, k), n)

    if sample_size >= n:
        # Sampling would be the identity; fall through to plain PAM.
        return pam(pairwise_distances(points), k, validate=False)

    # Deadline checkpoint: an expired request aborts between CLARA runs.
    checkpoint("clara")
    with get_tracer().span("clara.draws") as span:
        rows = np.stack([
            np.sort(draw.choice(n, size=sample_size, replace=False))
            for draw in rng.spawn(n_draws)
        ])
        if sample_size == k:
            # Every sample row is a medoid (PAM's k == n case).
            medoid_rows = rows
            n_swaps = np.zeros(n_draws, dtype=np.intp)
        else:
            samples = pairwise_distances(points[rows])
            sample_medoids, _, _, n_swaps = pam_batch(samples, k)
            medoid_rows = np.take_along_axis(rows, sample_medoids, axis=1)

        to_medoids = distances_to_points(points, points[medoid_rows])
        # A draw's cost sums each point's distance to its nearest medoid;
        # only the winner needs to know which medoid that is.
        nearest = np.minimum.reduce(to_medoids.swapaxes(1, 2), axis=1)
        costs = nearest.sum(axis=1)
        # First strictly-better draw wins.
        best = 0
        for draw in range(1, n_draws):
            if costs[draw] < costs[best]:
                best = draw
        if span.enabled:
            span.set("k", k)
            span.set("costs", [float(cost) for cost in costs])
            span.set("best_draw", best)
            span.set("n_iterations", int(n_swaps[best]))

    labels = np.argmin(to_medoids[best], axis=1)
    order = canonical_order(medoid_rows[best][None], labels[None])[0]
    return Clustering(
        labels=order[labels],
        medoids=medoid_rows[best][np.argsort(order)],
        cost=float(costs[best]),
        n_iterations=int(n_swaps[best]),
    )
