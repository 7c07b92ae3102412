"""Partitioning the dependency graph into themes.

The paper's method: "Blaeu creates groups of mutually dependent columns.
To do so, it partitions the dependency graph with cluster analysis …
Partitioning Around Medoids" (§3).  :func:`pam_partition` is that method
(PAM over ``1 − dependency``, k chosen by silhouette).  Two classic
alternatives are provided for comparison:
:func:`threshold_components` (connected components after dropping weak
edges) and :func:`modularity_partition` (greedy modularity via networkx).
"""

from __future__ import annotations

from typing import Sequence

import networkx as nx

from repro.cluster.kselect import KSelection, select_k
from repro.graph.dependency import DependencyGraph

__all__ = ["pam_partition", "threshold_components", "modularity_partition"]


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


def threshold_components(
    graph: DependencyGraph, min_weight: float = 0.3
) -> list[list[str]]:
    """Baseline: connected components of the graph above a weight threshold.

    Simple and parameter-sensitive: a single bridge edge merges
    unrelated themes.
    """
    view = graph.to_networkx(min_weight=min_weight)
    components = [sorted(component) for component in nx.connected_components(view)]
    components.sort(key=lambda group: (-len(group), group[0]))
    return components


def modularity_partition(graph: DependencyGraph) -> list[list[str]]:
    """Baseline: greedy modularity communities on the weighted graph."""
    view = graph.to_networkx()
    if view.number_of_edges() == 0:
        return [[column] for column in graph.columns]
    communities = nx.algorithms.community.greedy_modularity_communities(
        view, weight="weight"
    )
    groups = [sorted(community) for community in communities]
    groups.sort(key=lambda group: (-len(group), group[0]))
    return groups
