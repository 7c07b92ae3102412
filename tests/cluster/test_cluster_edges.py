"""Edge-case coverage across the clustering package."""

import numpy as np
import pytest

from oracles import adjusted_rand_index
from repro.cluster.clara import clara
from repro.cluster.distance import pairwise_distances
from repro.cluster.pam import pam
from repro.cluster.silhouette import mean_silhouette


class TestDuplicatePoints:
    def test_pam_with_many_duplicates(self):
        # Tied distances everywhere: PAM must still terminate and cover
        # all points.
        points = np.repeat(np.asarray([[0.0, 0.0], [5.0, 5.0]]), 25, axis=0)
        result = pam(pairwise_distances(points), 2)
        assert result.cost == pytest.approx(0.0)
        assert set(result.labels.tolist()) == {0, 1}

    def test_silhouette_with_duplicates(self):
        points = np.repeat(np.asarray([[0.0], [5.0]]), 10, axis=0)
        labels = np.repeat([0, 1], 10)
        assert mean_silhouette(
            pairwise_distances(points), labels
        ) == pytest.approx(1.0)

    def test_clara_with_constant_data(self, rng):
        points = np.zeros((100, 3))
        result = clara(points, 2, rng=rng)
        assert result.cost == pytest.approx(0.0)


class TestAnisotropicScales:
    def test_pam_dominant_feature(self, rng):
        # One feature with 100x the variance of the others: cluster
        # structure lives on it alone; PAM should follow it.
        signal = np.where(np.arange(100) < 50, 0.0, 500.0)
        noise = rng.normal(0, 1, (100, 3))
        points = np.column_stack([signal]) + 0  # (100,1)
        points = np.hstack([points, noise])
        result = pam(pairwise_distances(points), 2)
        truth = (np.arange(100) >= 50).astype(int)
        assert adjusted_rand_index(result.labels, truth) == 1.0
