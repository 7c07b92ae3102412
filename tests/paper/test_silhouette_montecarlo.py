"""§3 claim — Monte-Carlo silhouette: "it extracts a few sub-samples …
computes the clustering quality of those, and averages the results".

Two questions: how close is the estimate to the exact mean silhouette,
and how much cheaper is it?  The exact statistic is O(n²); the
estimator evaluates ``subsamples · size²`` distances regardless of n —
asserted as work, not as time.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles import monte_carlo_silhouette
from repro.cluster import silhouette
from repro.cluster.clara import clara
from repro.cluster.distance import pairwise_distances
from repro.cluster.silhouette import mean_silhouette
from synthetic import numeric_blobs, numeric_columns

N = 3_000
BUDGETS = [(4, 100), (8, 200), (16, 200), (8, 400)]


@pytest.fixture(scope="module")
def workload():
    blobs = numeric_blobs(n_rows=N, k=3, n_features=5, spread=0.9, seed=77)
    matrix = np.column_stack([c.values for c in numeric_columns(blobs.table)])
    labels = clara(matrix, 3, rng=np.random.default_rng(0)).labels
    return matrix, labels


def test_monte_carlo_estimate_is_close_to_exact(workload):
    matrix, labels = workload
    exact = mean_silhouette(pairwise_distances(matrix), labels)
    for n_subsamples, subsample_size in BUDGETS:
        estimate = monte_carlo_silhouette(
            matrix,
            labels,
            n_subsamples=n_subsamples,
            subsample_size=subsample_size,
            rng=np.random.default_rng(1),
        )
        assert abs(estimate - exact) < 0.08, (n_subsamples, subsample_size)


def test_monte_carlo_work_does_not_grow_with_n(workload, monkeypatch):
    matrix, labels = workload
    evaluated: list[int] = []

    def counting(points, *args, **kwargs):
        evaluated.append(len(points) ** 2)
        return pairwise_distances(points, *args, **kwargs)

    monkeypatch.setattr(silhouette, "pairwise_distances", counting)
    for n in (N // 4, N):
        evaluated.clear()
        monte_carlo_silhouette(
            matrix[:n],
            labels[:n],
            n_subsamples=8,
            subsample_size=200,
            rng=np.random.default_rng(1),
        )
        assert sum(evaluated) == 8 * 200**2
