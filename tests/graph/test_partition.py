"""Unit tests for graph partitioning into themes."""

import numpy as np
import pytest

from oracles import clustering_nmi
from repro.graph.dependency import GraphBuilder
from repro.graph.partition import pam_partition
from synthetic import planted_themes


@pytest.fixture
def graph():
    themed = planted_themes(
        n_rows=500,
        group_sizes={"eco": 4, "health": 4, "env": 4},
        noise=0.3,
        seed=9,
    )
    return themed, GraphBuilder().build(themed.table)


def _labels(groups, columns):
    index = {}
    for g, group in enumerate(groups):
        for column in group:
            index[column] = g
    return np.asarray([index[c] for c in columns])


class TestPamPartition:
    def test_recovers_planted_groups(self, graph):
        themed, dependency = graph
        groups, selection = pam_partition(dependency)
        predicted = _labels(groups, dependency.columns)
        truth = themed.column_labels(dependency.columns)
        assert clustering_nmi(predicted, truth) > 0.9
        assert selection.k == 3

    def test_groups_cover_all_columns_once(self, graph):
        _, dependency = graph
        groups, _ = pam_partition(dependency)
        flat = [c for group in groups for c in group]
        assert sorted(flat) == sorted(dependency.columns)

    def test_medoid_listed_first(self, graph):
        _, dependency = graph
        groups, selection = pam_partition(dependency)
        medoid_names = {
            dependency.columns[m] for m in selection.clustering.medoids
        }
        assert {group[0] for group in groups} == medoid_names

