"""Figure 3 — the mapping pipeline: preprocessing → clustering → tree.

The paper acknowledges the cost of the final stage: "the decision tree
only approximates the real partitions detected during the clustering
step".  On the labor-conditions workload that loss — tree fidelity, the
agreement between tree and clustering on the sample — must stay small.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.distance import pairwise_distances
from repro.cluster.pam import pam
from repro.core.config import BlaeuConfig
from repro.core.preprocess import preprocess
from repro.datasets.oecd import LABOR_THEME, oecd
from repro.tree.cart import fit_tree


def test_fig3_tree_tracks_the_clustering():
    config = BlaeuConfig()
    sample = oecd().sample(config.map_sample_size, rng=np.random.default_rng(0))

    space = preprocess(sample, columns=LABOR_THEME)
    assert space.n_rows == config.map_sample_size
    assert not np.isnan(space.matrix).any()

    clustering = pam(pairwise_distances(space.matrix[:1000]), 3)
    assert clustering.k == 3

    head = sample.head(1000)
    tree = fit_tree(
        head,
        clustering.labels,
        feature_names=LABOR_THEME,
        params=config.tree_params,
    )
    assert tree.accuracy(head, clustering.labels) > 0.85
