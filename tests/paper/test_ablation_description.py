"""Ablation — two design choices of the mapping pipeline.

* **description stage**: the paper trades accuracy for interpretability
  by describing PAM clusters with a CART tree.  Sweeping the leaf budget
  (``prune_leaf_factor``) gives the fidelity curve that justifies the
  default (2 × k).
* **dependency discretization**: the MI dependency graph can bin numeric
  columns equal-frequency (default) or equal-width.  On skewed data
  equal-width starves the estimate — the reason for the default.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles import discretize_column, normalized_mutual_information, shannon_entropy
from repro.cluster.distance import pairwise_distances
from repro.cluster.pam import pam
from repro.core.preprocess import preprocess
from repro.datasets.lofar import lofar
from repro.stats.discretize import MISSING_BIN
from repro.table.column import NumericColumn
from repro.table.table import Table
from repro.tree.cart import CartParams, fit_tree
from repro.tree.prune import prune_for_legibility
from synthetic import numeric_columns, planted_themes

COLUMNS = ("Flux150MHz", "SpectralIndex", "AngularSize", "Variability")


@pytest.fixture(scope="module")
def sample():
    return lofar(n_rows=6000).sample(1500, rng=np.random.default_rng(0))


def test_fidelity_is_monotone_in_the_leaf_budget(sample):
    labels = pam(
        pairwise_distances(preprocess(sample, columns=COLUMNS).matrix), 4
    ).labels
    tree = fit_tree(
        sample,
        labels,
        feature_names=COLUMNS,
        params=CartParams(max_depth=8, min_samples_leaf=2, min_samples_split=4),
    )
    # min_accuracy=1.0 disables the opportunistic cleanup phase so the
    # sweep isolates the hard leaf cap.
    pruned = [
        prune_for_legibility(tree, target_leaves=4 * factor, min_accuracy=1.0)
        for factor in (1, 2, 3, 4)
    ]
    fidelities = [t.accuracy(sample, labels) for t in (*pruned, tree)]
    assert all(b >= a - 1e-9 for a, b in zip(fidelities, fidelities[1:]))
    assert fidelities[1] > 0.85  # the default budget captures most of it


def test_equal_frequency_bins_keep_the_signal_under_skew():
    # Heavy-tailed latent groups: equal-width bins collapse most mass
    # into one bin and starve the MI estimate.
    planted = planted_themes(
        n_rows=800, group_sizes={"a": 3, "b": 3}, noise=0.4, seed=13
    )
    skewed = Table(
        "skewed",
        [
            NumericColumn(c.name, np.exp(2.5 * c.values))
            for c in numeric_columns(planted.table)
        ],
    )

    def nmi(equal_frequency: bool) -> float:
        a, b = (
            discretize_column(skewed.column(name), equal_frequency=equal_frequency)
            for name in ("a_0", "a_1")
        )
        keep = (a != MISSING_BIN) & (b != MISSING_BIN)
        return normalized_mutual_information(a[keep], b[keep])

    assert nmi(True) > nmi(False)


def test_discretized_columns_carry_entropy(sample):
    # The MI estimates are not artifacts of degenerate binning.
    for name in COLUMNS:
        codes = discretize_column(sample.column(name))
        assert shannon_entropy(codes[codes != MISSING_BIN]) > 1.0, name
