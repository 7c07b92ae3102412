"""Unit tests for silhouette-driven k selection."""

import numpy as np
import pytest

from repro.cluster.distance import pairwise_distances
from repro.cluster.kselect import select_k, select_k_points
from repro.cluster.pam import pam
from repro.cluster.silhouette import SharedSilhouette


def _blobs(rng, k, n_per=40, gap=12.0):
    angles = np.linspace(0, 2 * np.pi, k, endpoint=False)
    centers = gap * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    points = np.vstack([
        rng.normal(0, 0.5, (n_per, 2)) + centers[c] for c in range(k)
    ])
    return points


class TestSelectK:
    @pytest.mark.parametrize("true_k", [2, 3, 4, 5])
    def test_recovers_planted_k(self, rng, true_k):
        points = _blobs(rng, true_k)
        selection = select_k(pairwise_distances(points), k_values=(2, 3, 4, 5, 6))
        assert selection.k == true_k

    def test_scores_recorded_for_all_candidates(self, rng):
        points = _blobs(rng, 3)
        selection = select_k(pairwise_distances(points), k_values=(2, 3, 4))
        assert set(selection.scores()) == {2, 3, 4}
        assert selection.best.silhouette == max(selection.scores().values())

    def test_tie_breaks_toward_smaller_k(self, rng):
        # A single uniform blob: all k score poorly; smaller k preferred
        # among (near-)ties is not guaranteed, but the winner must be a
        # candidate and the clustering consistent.
        points = rng.normal(0, 1, (60, 2))
        selection = select_k(pairwise_distances(points), k_values=(2, 3))
        assert selection.k in (2, 3)
        assert selection.clustering.k == selection.k

    def test_too_few_points_gives_single_cluster(self, rng):
        points = rng.normal(0, 1, (2, 2))
        selection = select_k(pairwise_distances(points), k_values=(2, 3))
        assert selection.k in (1, 2)


class TestSelectKPoints:
    def test_recovers_planted_k_via_monte_carlo(self, rng):
        points = _blobs(rng, 3, n_per=150)

        def cluster_fn(pts, k):
            return pam(pairwise_distances(pts), k)

        shared = SharedSilhouette(
            points, n_subsamples=6, subsample_size=80, rng=rng
        )
        selection = select_k_points(
            points, cluster_fn, k_values=(2, 3, 4), shared=shared
        )
        assert selection.k == 3

    def test_degenerate_input(self, rng):
        points = rng.normal(0, 1, (2, 2))

        def cluster_fn(pts, k):
            return pam(pairwise_distances(pts), k)

        shared = SharedSilhouette(points, rng=rng)
        selection = select_k_points(
            points, cluster_fn, k_values=(2,), shared=shared
        )
        assert selection.k in (1, 2)
