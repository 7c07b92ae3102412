"""Dependency graphs over table columns (the theme substrate).

Blaeu "generates a dependency graph, a weighted undirected graph in which
each vertex represents a column and each edge the statistical dependency
between two columns", then "partitions the dependency graph with cluster
analysis" (§3, Figure 2).  This package builds that graph on normalized
mutual information — the paper's measure; correlation is only what it
"could have used" — and partitions it with PAM over the induced
dissimilarity.
"""

from repro.graph.codes import CodeCache
from repro.graph.dependency import DependencyGraph, GraphBuilder
from repro.graph.partition import pam_partition

__all__ = [
    "CodeCache",
    "DependencyGraph",
    "GraphBuilder",
    "pam_partition",
]
