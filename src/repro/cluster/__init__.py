"""Clustering substrate: PAM, CLARA, silhouettes and friends.

The paper clusters twice — columns into themes and tuples into map
regions — and both times uses **Partitioning Around Medoids** (PAM,
Kaufman & Rousseeuw 1990) "because it is accurate, well established and
fast enough" (§3), switching to the sampling-based **CLARA** when the
data is too large, and choosing the number of clusters with the
**silhouette coefficient**, estimated "in a Monte-Carlo fashion".
Every map clusters one way: Euclidean distances, in float64, over the
normalised features.  Everything here is implemented from the original
references on top of NumPy.
"""

from repro.cluster.clara import clara
from repro.cluster.distance import pairwise_distances
from repro.cluster.kselect import KSelection, select_k, select_k_points
from repro.cluster.pam import Clustering, pam
from repro.cluster.silhouette import (
    SharedSilhouette,
    mean_silhouette,
    silhouette_samples,
)
from repro.cluster.stages import (
    ClusterOutcome,
    ClusterParams,
    cluster_features,
    leaf_silhouettes,
    shared_distance_matrix,
)

__all__ = [
    "ClusterOutcome",
    "ClusterParams",
    "Clustering",
    "KSelection",
    "SharedSilhouette",
    "clara",
    "cluster_features",
    "leaf_silhouettes",
    "mean_silhouette",
    "pairwise_distances",
    "pam",
    "select_k",
    "select_k_points",
    "shared_distance_matrix",
    "silhouette_samples",
]
