"""Unit and property tests for PAM."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import adjusted_rand_index
from repro.cluster.distance import pairwise_distances
from repro.cluster.pam import pam


def _blob_points(rng, n_per=30, centers=((-5, -5), (5, 5), (5, -5))):
    points = []
    labels = []
    for c, center in enumerate(centers):
        points.append(rng.normal(0, 0.4, (n_per, 2)) + np.asarray(center))
        labels += [c] * n_per
    return np.vstack(points), np.asarray(labels)


class TestPam:
    def test_recovers_separated_blobs(self, rng):
        points, truth = _blob_points(rng)
        result = pam(pairwise_distances(points), 3)
        assert adjusted_rand_index(result.labels, truth) == pytest.approx(1.0)

    def test_medoids_are_members_of_their_clusters(self, rng):
        points, _ = _blob_points(rng)
        result = pam(pairwise_distances(points), 3)
        for cluster, medoid in enumerate(result.medoids):
            assert result.labels[medoid] == cluster

    def test_cost_matches_assignment(self, rng):
        points, _ = _blob_points(rng)
        distances = pairwise_distances(points)
        result = pam(distances, 3)
        manual = sum(
            distances[i, result.medoids[result.labels[i]]]
            for i in range(points.shape[0])
        )
        assert result.cost == pytest.approx(manual)

    def test_k_equals_n_gives_zero_cost(self, rng):
        points = rng.normal(0, 1, (6, 2))
        result = pam(pairwise_distances(points), 6)
        assert result.cost == 0.0
        assert sorted(result.labels.tolist()) == list(range(6))

    def test_k_one(self, rng):
        points = rng.normal(0, 1, (10, 2))
        result = pam(pairwise_distances(points), 1)
        assert (result.labels == 0).all()
        # The single medoid is the 1-median of the dataset.
        distances = pairwise_distances(points)
        assert result.medoids[0] == np.argmin(distances.sum(axis=1))

    def test_invalid_k_rejected(self, rng):
        distances = pairwise_distances(rng.normal(0, 1, (5, 2)))
        with pytest.raises(ValueError):
            pam(distances, 0)
        with pytest.raises(ValueError):
            pam(distances, 6)

    def test_clusters_ordered_by_size(self, rng):
        points = np.vstack([
            rng.normal(0, 0.3, (50, 2)) + [5, 5],
            rng.normal(0, 0.3, (10, 2)) - [5, 5],
        ])
        result = pam(pairwise_distances(points), 2)
        sizes = result.sizes()
        assert sizes[0] >= sizes[1]

    def test_deterministic_given_matrix(self, rng):
        points, _ = _blob_points(rng)
        distances = pairwise_distances(points)
        a = pam(distances, 3)
        b = pam(distances, 3)
        assert (a.labels == b.labels).all()
        assert (a.medoids == b.medoids).all()

    def test_swap_improves_on_build(self, rng):
        # On a hard instance SWAP should never make things worse.
        points = rng.normal(0, 1, (60, 4))
        distances = pairwise_distances(points)
        result = pam(distances, 4)
        from repro.cluster.pam import _assign, _build

        stack = distances[None]  # the kernels run a batch of one
        _, build_costs = _assign(stack, _build(stack, 4))
        assert result.cost <= build_costs[0] + 1e-9


class TestClusteringHelpers:
    def test_members(self, rng):
        points, _ = _blob_points(rng)
        result = pam(pairwise_distances(points), 3)
        for cluster in range(3):
            members = result.members(cluster)
            assert (result.labels[members] == cluster).all()

    def test_members_out_of_range(self, rng):
        points, _ = _blob_points(rng)
        result = pam(pairwise_distances(points), 3)
        with pytest.raises(IndexError):
            result.members(3)

    def test_sizes_sum_to_n(self, rng):
        points, _ = _blob_points(rng)
        result = pam(pairwise_distances(points), 3)
        assert result.sizes().sum() == points.shape[0]


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=40),
    k=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=999),
)
def test_pam_invariants(n, k, seed):
    if k > n:
        k = n
    rng = np.random.default_rng(seed)
    points = rng.normal(0, 1, (n, 3))
    result = pam(pairwise_distances(points), k)
    # Exactly k clusters, every point labeled, medoids self-assigned.
    assert result.k == k
    assert result.labels.shape == (n,)
    assert set(result.labels.tolist()) == set(range(k))
    assert np.unique(result.medoids).size == k
    for cluster, medoid in enumerate(result.medoids):
        assert result.labels[medoid] == cluster
    assert result.cost >= 0.0
