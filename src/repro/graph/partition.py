"""Partitioning the dependency graph into themes.

The paper's method: "Blaeu creates groups of mutually dependent columns.
To do so, it partitions the dependency graph with cluster analysis …
Partitioning Around Medoids" (§3).  :func:`pam_partition` is that method
(PAM over ``1 − dependency``, k chosen by silhouette).
"""

from __future__ import annotations

from typing import Sequence

from repro.cluster.kselect import KSelection, select_k
from repro.graph.dependency import DependencyGraph

__all__ = ["pam_partition"]


def pam_partition(
    graph: DependencyGraph,
    k_values: Sequence[int] = (2, 3, 4, 5, 6, 7, 8),
) -> tuple[list[list[str]], KSelection]:
    """The paper's theme partition: PAM on graph dissimilarity.

    Returns the groups (each a list of column names, medoid first) and the
    full k-selection record (silhouette per candidate k).
    """
    dissimilarity = graph.dissimilarity()
    selection = select_k(dissimilarity, k_values=k_values)
    clustering = selection.clustering
    groups: list[list[str]] = []
    for cluster in range(clustering.k):
        members = clustering.members(cluster)
        medoid = int(clustering.medoids[cluster])
        ordered = [graph.columns[medoid]] + [
            graph.columns[m] for m in members if m != medoid
        ]
        groups.append(ordered)
    return groups, selection

