"""CLARA — Clustering LARge Applications (Kaufman & Rousseeuw 1990, ch. 3).

"When the data is too large, Blaeu creates the maps with CLARA, a
sampling-based variant of the PAM algorithm" (§3).  CLARA draws several
modest samples, runs PAM on each, extends each sample's medoids to the
whole dataset, and keeps the medoid set with the lowest *full-data* cost.
The quadratic PAM work is confined to the sample, so the overall cost is
O(draws · (s² + k·n)) instead of PAM's O(k·n²).

The draws are independent, so they fan out across a thread pool
(``n_jobs``).  Each draw owns a child generator spawned from the caller's
RNG (``rng.spawn``), which makes the randomness a function of the draw
index alone — parallel runs are **bit-identical** to serial runs with the
same seed, whatever the worker count.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.distance import distances_to_points, pairwise_distances
from repro.cluster.pam import Clustering, pam
from repro.cluster.parallel import map_in_order
from repro.obs.trace import get_tracer

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
    metric: str = "euclidean",
    rng: np.random.Generator | None = None,
    n_jobs: int | None = None,
    dtype: object = None,
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
    metric:
        ``euclidean`` or ``manhattan`` (must support point-to-medoid
        distances for the assignment step).
    rng:
        Source of sampling randomness.  Each draw gets its own child
        generator spawned from it, so results depend only on the seed —
        not on the worker count.
    n_jobs:
        Draw-level parallelism: ``None``/``1`` serial, ``0`` all cores,
        otherwise that many worker threads.
    dtype:
        Distance-kernel dtype (``float32`` opt-in; default float64).

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
    rng = rng or np.random.default_rng()
    if sample_size is None:
        sample_size = default_sample_size(k)
    sample_size = min(max(sample_size, k), n)

    if sample_size >= n:
        # Sampling would be the identity; fall through to plain PAM.
        full = pam(
            pairwise_distances(points, metric, dtype=dtype),
            k,
            validate=False,
        )
        return full

    def run_draw(item: tuple[int, np.random.Generator]) -> Clustering:
        index, draw_rng = item
        with get_tracer().span("clara.draw") as span:
            sample_indices = draw_rng.choice(n, size=sample_size, replace=False)
            sample_indices.sort()
            sample = points[sample_indices]
            sample_result = pam(
                pairwise_distances(sample, metric, dtype=dtype),
                k,
                validate=False,
            )
            medoid_rows = sample_indices[sample_result.medoids]

            to_medoids = distances_to_points(
                points, points[medoid_rows], metric, dtype=dtype
            )
            labels = np.argmin(to_medoids, axis=1).astype(np.intp)
            cost = float(to_medoids[np.arange(n), labels].sum())
            if span.enabled:
                span.set("draw", index)
                span.set("k", k)
                span.set("cost", cost)
            return Clustering(
                labels=labels,
                medoids=medoid_rows.astype(np.intp),
                cost=cost,
                n_iterations=sample_result.n_iterations,
            )

    # Spawn order (not completion order) fixes each draw's generator, so
    # the enumeration changes nothing about the random stream.
    draws = map_in_order(
        run_draw, list(enumerate(rng.spawn(n_draws))), n_jobs=n_jobs
    )

    # First strictly-better draw wins — the same tie-breaking a serial
    # loop applies, so the choice is independent of completion order.
    best = draws[0]
    for candidate in draws[1:]:
        if candidate.cost < best.cost:
            best = candidate
    return _relabel_by_size(best)


def _relabel_by_size(result: Clustering) -> Clustering:
    """Apply the same canonical (size-descending) ordering PAM uses."""
    sizes = np.bincount(result.labels, minlength=result.k)
    ranking = sorted(
        range(result.k),
        key=lambda c: (-int(sizes[c]), int(result.medoids[c])),
    )
    order = np.empty(result.k, dtype=np.intp)
    for new_id, old_id in enumerate(ranking):
        order[old_id] = new_id
    return Clustering(
        labels=order[result.labels],
        medoids=result.medoids[np.argsort(order)],
        cost=result.cost,
        n_iterations=result.n_iterations,
    )
