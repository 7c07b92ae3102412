"""Silhouette-driven choice of the number of clusters k.

"We generate several partitionings with different numbers of clusters,
and keep the one with the best score" (§3).  :func:`select_k` does exactly
that: it runs the clusterer for each k in a range, scores each result with
the (exact or Monte-Carlo) silhouette, and returns every scored candidate
plus the winner — the candidates matter because Blaeu shows users the
quality of the partition they are looking at.

Both selectors share their distance work across the whole k sweep: the
matrix (or the Monte-Carlo subsample matrices) is computed **once per
feature matrix**, not once per candidate k — see
:class:`~repro.cluster.silhouette.SharedSilhouette`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.cluster.distance import validate_distance_matrix
from repro.cluster.pam import Clustering, pam
from repro.cluster.silhouette import SharedSilhouette, mean_silhouette
from repro.obs.trace import get_tracer

__all__ = ["KCandidate", "KSelection", "select_k", "select_k_points"]


@dataclass(frozen=True)
class KCandidate:
    """One evaluated value of k."""

    k: int
    clustering: Clustering
    silhouette: float


@dataclass(frozen=True)
class KSelection:
    """All evaluated candidates plus the winning one."""

    candidates: tuple[KCandidate, ...]
    best: KCandidate

    @property
    def k(self) -> int:
        """The selected number of clusters."""
        return self.best.k

    @property
    def clustering(self) -> Clustering:
        """The selected clustering."""
        return self.best.clustering

    def scores(self) -> dict[int, float]:
        """k → silhouette for every candidate (for the quality panel)."""
        return {c.k: c.silhouette for c in self.candidates}


def select_k(
    distances: np.ndarray,
    k_values: Sequence[int] = (2, 3, 4, 5, 6),
) -> KSelection:
    """Pick k by exact silhouette over a precomputed distance matrix.

    Used for themes, where the "points" are columns and the matrix is the
    dependency-graph dissimilarity (small: one row per column).  The
    matrix is validated once up front; the per-k PAM runs and silhouette
    evaluations all reuse it as-is.  Ties favour the smaller k (simpler
    maps).
    """
    distances = validate_distance_matrix(distances)
    n = distances.shape[0]
    usable = [k for k in k_values if 2 <= k <= max(n - 1, 1)]
    if not usable:
        # Too few points to split: a single cluster is the only option.
        clustering = pam(distances, 1, validate=False)
        only = KCandidate(k=1, clustering=clustering, silhouette=0.0)
        return KSelection(candidates=(only,), best=only)

    tracer = get_tracer()
    candidates: list[KCandidate] = []
    for k in usable:
        with tracer.span("kselect.candidate") as span:
            clustering = pam(distances, k, validate=False)
            score = mean_silhouette(
                distances, clustering.labels, validate=False
            )
            if span.enabled:
                span.set("k", k)
                span.set("silhouette", round(score, 4))
        candidates.append(KCandidate(k=k, clustering=clustering, silhouette=score))
    best = max(candidates, key=lambda c: (c.silhouette, -c.k))
    return KSelection(candidates=tuple(candidates), best=best)


def select_k_points(
    points: np.ndarray,
    cluster_fn: Callable[[np.ndarray, int], Clustering],
    k_values: Sequence[int] = (2, 3, 4, 5, 6),
    *,
    shared: SharedSilhouette,
) -> KSelection:
    """Pick k for a point matrix, sharing distance work across the sweep.

    ``cluster_fn(points, k)`` supplies the clusterings (PAM on a sample or
    CLARA, depending on scale — the engine decides).  Every candidate is
    scored by ``shared``, the caller's :class:`SharedSilhouette` over the
    same points: its matrices (the full one, or the Monte-Carlo subsample
    matrices) are built once and reused by every k.  This is the
    interaction-time path: scoring cost does not grow with the table.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    usable = [k for k in k_values if 2 <= k <= max(n - 1, 1)]
    if not usable:
        labels = np.zeros(n, dtype=np.intp)
        clustering = Clustering(
            labels=labels, medoids=np.zeros(1, dtype=np.intp), cost=0.0
        )
        only = KCandidate(k=1, clustering=clustering, silhouette=0.0)
        return KSelection(candidates=(only,), best=only)

    tracer = get_tracer()
    candidates: list[KCandidate] = []
    for k in usable:
        with tracer.span("kselect.candidate") as span:
            clustering = cluster_fn(points, k)
            score = shared.score(clustering.labels)
            if span.enabled:
                span.set("k", k)
                span.set("silhouette", round(score, 4))
        candidates.append(KCandidate(k=k, clustering=clustering, silhouette=score))
    best = max(candidates, key=lambda c: (c.silhouette, -c.k))
    return KSelection(candidates=tuple(candidates), best=best)
