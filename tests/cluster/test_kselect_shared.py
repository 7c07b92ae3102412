"""Shared-distance k selection must match the legacy per-k computation."""

import numpy as np
import pytest

from oracles import monte_carlo_silhouette
from repro.cluster.distance import pairwise_distances
from repro.cluster.kselect import select_k_points
from repro.cluster.pam import pam
from repro.cluster.silhouette import SharedSilhouette, mean_silhouette


def _blobs(rng, k, n_per=60, gap=12.0):
    angles = np.linspace(0, 2 * np.pi, k, endpoint=False)
    centers = gap * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return np.vstack([
        rng.normal(0, 0.5, (n_per, 2)) + centers[c] for c in range(k)
    ])


class TestSharedSilhouetteExact:
    def test_exact_mode_below_threshold(self, rng):
        points = _blobs(rng, 3, n_per=30)
        shared = SharedSilhouette(points, exact_threshold=200, rng=rng)
        assert shared.exact
        assert shared.matrix is not None

    def test_exact_score_matches_per_k_recomputation(self, rng):
        """The old path rebuilt the matrix per k; scores must be unchanged."""
        points = _blobs(rng, 3, n_per=40)
        shared = SharedSilhouette(points, exact_threshold=500, rng=rng)
        for k in (2, 3, 4, 5):
            labels = pam(pairwise_distances(points), k).labels
            legacy = mean_silhouette(pairwise_distances(points), labels)
            assert shared.score(labels) == legacy

    def test_caller_provided_matrix_is_used(self, rng):
        points = _blobs(rng, 2, n_per=25)
        matrix = pairwise_distances(points)
        shared = SharedSilhouette(points, distances=matrix, rng=rng)
        assert shared.exact
        assert shared.matrix is matrix
        labels = pam(matrix, 2).labels
        assert shared.score(labels) == mean_silhouette(matrix, labels)

    def test_mismatched_matrix_rejected(self, rng):
        points = _blobs(rng, 2, n_per=25)
        with pytest.raises(ValueError):
            SharedSilhouette(points, distances=np.zeros((3, 3)), rng=rng)


class TestSharedSilhouetteSampled:
    def test_sampled_mode_above_threshold(self, rng):
        points = _blobs(rng, 3, n_per=200)
        shared = SharedSilhouette(
            points, subsample_size=80, exact_threshold=100, rng=rng
        )
        assert not shared.exact

    def test_matches_monte_carlo_with_same_seed(self, rng):
        """Sharing the draws across k must not change any single score."""
        points = _blobs(rng, 3, n_per=200)
        labels = pam(pairwise_distances(points), 3).labels
        shared = SharedSilhouette(
            points,
            n_subsamples=6,
            subsample_size=80,
            rng=np.random.default_rng(99),
        )
        legacy = monte_carlo_silhouette(
            points,
            labels,
            n_subsamples=6,
            subsample_size=80,
            rng=np.random.default_rng(99),
        )
        assert shared.score(labels) == legacy

    def test_degenerate_labels_score_zero(self, rng):
        points = _blobs(rng, 2, n_per=150)
        shared = SharedSilhouette(
            points, subsample_size=50, exact_threshold=10, rng=rng
        )
        assert shared.score(np.zeros(points.shape[0], dtype=np.intp)) == 0.0

    def test_misaligned_labels_rejected(self, rng):
        points = _blobs(rng, 2, n_per=30)
        shared = SharedSilhouette(points, rng=rng)
        with pytest.raises(ValueError):
            shared.score(np.zeros(5, dtype=np.intp))


class TestSelectKPointsShared:
    def test_matches_legacy_per_k_loop(self, rng):
        """select_k_points == the naive per-k loop over identical scoring."""
        points = _blobs(rng, 3, n_per=50)

        def cluster_fn(pts, k):
            return pam(pairwise_distances(pts), k)

        shared = SharedSilhouette(points, exact_threshold=1000, rng=rng)
        selection = select_k_points(
            points, cluster_fn, k_values=(2, 3, 4), shared=shared
        )

        # Legacy reference: recompute matrix and silhouette for every k.
        legacy_scores = {}
        for k in (2, 3, 4):
            labels = pam(pairwise_distances(points), k).labels
            legacy_scores[k] = mean_silhouette(pairwise_distances(points), labels)
        assert selection.scores() == legacy_scores
        assert selection.k == max(
            legacy_scores, key=lambda k: (legacy_scores[k], -k)
        )

    def test_recovers_planted_k_exact_path(self, rng):
        points = _blobs(rng, 4, n_per=40)

        def cluster_fn(pts, k):
            return pam(pairwise_distances(pts), k)

        shared = SharedSilhouette(points, exact_threshold=500, rng=rng)
        selection = select_k_points(
            points, cluster_fn, k_values=(2, 3, 4, 5), shared=shared
        )
        assert selection.k == 4

    def test_explicit_shared_scorer_is_honoured(self, rng):
        points = _blobs(rng, 2, n_per=30)
        matrix = pairwise_distances(points)
        shared = SharedSilhouette(points, distances=matrix, rng=rng)

        def cluster_fn(pts, k):
            return pam(matrix, k, validate=False)

        selection = select_k_points(
            points, cluster_fn, k_values=(2, 3), shared=shared
        )
        for candidate in selection.candidates:
            expected = mean_silhouette(matrix, candidate.clustering.labels)
            assert candidate.silhouette == expected
