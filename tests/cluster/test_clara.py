"""Unit tests for CLARA."""

import numpy as np
import pytest

from oracles import adjusted_rand_index
from repro.cluster.clara import clara, default_sample_size
from repro.cluster.distance import pairwise_distances
from repro.cluster.pam import pam


def _blobs(rng, n_per=400, centers=((-6, 0), (6, 0), (0, 8))):
    points = []
    labels = []
    for c, center in enumerate(centers):
        points.append(rng.normal(0, 0.5, (n_per, 2)) + np.asarray(center))
        labels += [c] * n_per
    return np.vstack(points), np.asarray(labels)


class TestClara:
    def test_recovers_blobs_at_scale(self, rng):
        points, truth = _blobs(rng)
        result = clara(points, 3, rng=rng)
        assert adjusted_rand_index(result.labels, truth) > 0.98

    def test_labels_cover_all_points(self, rng):
        points, _ = _blobs(rng, n_per=200)
        result = clara(points, 3, rng=rng)
        assert result.labels.shape == (points.shape[0],)
        assert set(result.labels.tolist()) == {0, 1, 2}

    def test_medoids_index_full_dataset(self, rng):
        points, _ = _blobs(rng, n_per=200)
        result = clara(points, 3, rng=rng)
        assert result.medoids.max() < points.shape[0]
        for cluster, medoid in enumerate(result.medoids):
            assert result.labels[medoid] == cluster

    def test_cost_close_to_pam(self, rng):
        points, _ = _blobs(rng, n_per=60)  # small enough for exact PAM
        exact = pam(pairwise_distances(points), 3)
        approx = clara(points, 3, n_draws=5, rng=rng)
        assert approx.cost <= exact.cost * 1.1

    def test_small_input_falls_through_to_pam(self, rng):
        points = rng.normal(0, 1, (30, 2))
        result = clara(points, 3, sample_size=100, rng=rng)
        exact = pam(pairwise_distances(points), 3)
        assert result.cost == pytest.approx(exact.cost)

    def test_more_draws_never_hurt_much(self, rng):
        points, _ = _blobs(rng, n_per=300)
        one = clara(points, 3, n_draws=1, rng=np.random.default_rng(0))
        five = clara(points, 3, n_draws=5, rng=np.random.default_rng(0))
        assert five.cost <= one.cost + 1e-9

    def test_default_sample_size_rule(self):
        assert default_sample_size(3) == 46
        assert default_sample_size(10) == 60

    def test_invalid_arguments_rejected(self, rng):
        points = rng.normal(0, 1, (20, 2))
        with pytest.raises(ValueError):
            clara(points, 0, rng=rng)
        with pytest.raises(ValueError):
            clara(points, 3, n_draws=0, rng=rng)
        with pytest.raises(ValueError):
            clara(np.zeros(5), 2, rng=rng)

    def test_clusters_ordered_by_size(self, rng):
        points = np.vstack([
            rng.normal(0, 0.4, (500, 2)) + [6, 6],
            rng.normal(0, 0.4, (100, 2)) - [6, 6],
        ])
        result = clara(points, 2, rng=rng)
        sizes = np.bincount(result.labels)
        assert sizes[0] >= sizes[1]
