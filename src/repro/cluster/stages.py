"""Reusable cluster-stage primitives for the staged map pipeline.

The map pipeline (:mod:`repro.core.pipeline`) splits map construction
into memoizable stages.  The distance and clustering work those stages
run lives here, in the cluster package, so it can be reused by any
caller that holds a feature matrix — not just the map builder:

* :func:`shared_distance_matrix` — the Distances stage: one pairwise
  matrix per feature matrix at PAM scale (``None`` at CLARA scale,
  where no caller-visible matrix exists);
* :func:`cluster_features` — the Cluster stage: PAM over the shared
  matrix or CLARA at scale, k forced or chosen by the shared-distance
  silhouette sweep;
* :func:`leaf_silhouettes` — per-cluster silhouette quality, reusing
  the shared matrix when one exists (exact, zero extra distance work)
  and falling back to a bounded subsample otherwise.

All knobs arrive through one frozen :class:`ClusterParams`, so the
functions stay independent of the engine configuration object (the
cluster package sits *below* :mod:`repro.core`).

RNG contract: the three functions consume randomness from the passed
generator in a fixed order (CLARA-scale silhouette subsample draws,
then the per-k clustering runs, then the leaf-quality subsample).  The
pipeline relies on this to make staged, cache-warm builds bit-identical
to a single sequential pass over one generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.clara import clara
from repro.cluster.distance import pairwise_distances
from repro.cluster.kselect import select_k_points
from repro.cluster.pam import Clustering, pam
from repro.cluster.silhouette import SharedSilhouette, silhouette_samples

__all__ = [
    "ClusterParams",
    "ClusterOutcome",
    "shared_distance_matrix",
    "cluster_features",
    "leaf_silhouettes",
]


@dataclass(frozen=True)
class ClusterParams:
    """The knobs the cluster stages read (a config-independent subset).

    Field meanings match their :class:`~repro.core.config.BlaeuConfig`
    namesakes; the map pipeline builds one of these from its config.
    """

    k_values: tuple[int, ...] = (2, 3, 4, 5, 6)
    clara_threshold: int = 1200
    clara_draws: int = 5
    clara_sample_size: int | None = None
    silhouette_subsamples: int = 8
    silhouette_subsample_size: int = 200
    silhouette_exact_threshold: int = 600


@dataclass(frozen=True)
class ClusterOutcome:
    """What the Cluster stage produces for one (matrix, k) request."""

    clustering: Clustering
    silhouette: float


def shared_distance_matrix(
    matrix: np.ndarray, params: ClusterParams
) -> np.ndarray | None:
    """The full pairwise matrix at PAM scale; ``None`` at CLARA scale.

    This is the Distances stage: the single most expensive reusable
    artifact of a map build.  It is computed once per (sample, columns)
    pair and shared by every candidate k, every silhouette evaluation
    and the per-leaf quality panel.  Above ``clara_threshold`` rows the
    engine clusters with CLARA, which never materializes an O(n²)
    matrix — the stage then has nothing to share and returns ``None``.
    """
    if matrix.shape[0] <= params.clara_threshold:
        return pairwise_distances(matrix)
    return None


def cluster_features(
    matrix: np.ndarray,
    params: ClusterParams,
    rng: np.random.Generator,
    forced_k: int | None = None,
    distances: np.ndarray | None = None,
) -> ClusterOutcome:
    """Cluster the vectors; return the clustering and its silhouette.

    ``distances`` is the Distances-stage artifact
    (:func:`shared_distance_matrix` of the same matrix): when present,
    every candidate k runs PAM on it and silhouettes are exact over it;
    when absent each k runs its CLARA draws as one batch and the
    Monte-Carlo silhouette subsamples are drawn once for the whole k
    sweep.
    """
    n = matrix.shape[0]

    def cluster_fn(points: np.ndarray, k: int) -> Clustering:
        if distances is not None:
            return pam(distances, k, validate=False)
        return clara(
            points,
            k,
            n_draws=params.clara_draws,
            sample_size=params.clara_sample_size,
            rng=rng,
        )

    shared = SharedSilhouette(
        matrix,
        n_subsamples=params.silhouette_subsamples,
        subsample_size=params.silhouette_subsample_size,
        exact_threshold=params.silhouette_exact_threshold,
        rng=rng,
        distances=distances,
    )

    if forced_k is not None:
        if not 1 <= forced_k <= n:
            raise ValueError(f"forced k={forced_k} out of range [1, {n}]")
        clustering = cluster_fn(matrix, forced_k)
        return ClusterOutcome(
            clustering=clustering, silhouette=shared.score(clustering.labels)
        )

    selection = select_k_points(
        matrix,
        cluster_fn,
        k_values=params.k_values,
        shared=shared,
    )
    return ClusterOutcome(
        clustering=selection.clustering, silhouette=selection.best.silhouette
    )


def leaf_silhouettes(
    matrix: np.ndarray,
    clustering: Clustering,
    params: ClusterParams,
    rng: np.random.Generator,
    distances: np.ndarray | None = None,
) -> dict[int, float]:
    """Per-cluster mean silhouette, from the shared matrix or a subsample.

    When the Distances stage built the full matrix it is reused as-is
    (exact per-leaf quality, zero extra distance work).  Otherwise a
    bounded subsample is drawn from ``rng`` — the one post-clustering
    consumer of stage randomness.
    """
    n = matrix.shape[0]
    if distances is not None:
        labels = clustering.labels
    else:
        cap = max(params.silhouette_subsample_size * 2, 400)
        if n > cap:
            chosen = rng.choice(n, size=cap, replace=False)
        else:
            chosen = np.arange(n)
        labels = clustering.labels[chosen]
    if np.unique(labels).size < 2:
        return {int(c): 0.0 for c in np.unique(clustering.labels)}
    if distances is None:
        distances = pairwise_distances(matrix[chosen])
    values = silhouette_samples(distances, labels, validate=False)
    return {
        int(cluster): float(values[labels == cluster].mean())
        for cluster in np.unique(labels)
    }
