"""Unit and property tests for silhouette estimators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import monte_carlo_silhouette
from repro.cluster.distance import pairwise_distances
from repro.cluster.silhouette import mean_silhouette, silhouette_samples


def _two_blobs(rng, n_per=40, gap=10.0):
    points = np.vstack([
        rng.normal(0, 0.5, (n_per, 2)),
        rng.normal(0, 0.5, (n_per, 2)) + gap,
    ])
    labels = np.repeat([0, 1], n_per)
    return points, labels


class TestSilhouetteSamples:
    def test_well_separated_blobs_near_one(self, rng):
        points, labels = _two_blobs(rng)
        values = silhouette_samples(pairwise_distances(points), labels)
        assert values.mean() > 0.9

    def test_bad_labeling_scores_negative(self, rng):
        points, labels = _two_blobs(rng)
        shuffled = labels.copy()
        # Swap half of each cluster: many points closer to the other side.
        shuffled[:20] = 1
        shuffled[40:60] = 0
        values = silhouette_samples(pairwise_distances(points), shuffled)
        assert values.mean() < 0.1

    def test_values_in_range(self, rng):
        points = rng.normal(0, 1, (50, 3))
        labels = rng.integers(0, 3, 50)
        values = silhouette_samples(pairwise_distances(points), labels)
        assert (values >= -1).all() and (values <= 1).all()

    def test_single_cluster_is_neutral_zero(self, rng):
        points = rng.normal(0, 1, (10, 2))
        values = silhouette_samples(
            pairwise_distances(points), np.zeros(10, dtype=int)
        )
        assert (values == 0).all()

    def test_singleton_cluster_scores_zero(self, rng):
        points, labels = _two_blobs(rng, n_per=5)
        labels = labels.copy()
        labels[0] = 2  # a singleton cluster
        values = silhouette_samples(pairwise_distances(points), labels)
        assert values[0] == 0.0

    def test_label_shape_checked(self, rng):
        points = rng.normal(0, 1, (5, 2))
        with pytest.raises(ValueError):
            silhouette_samples(pairwise_distances(points), np.zeros(4))

    def test_matches_manual_computation(self):
        # Four points on a line: 0, 1 | 10, 11.
        points = np.asarray([[0.0], [1.0], [10.0], [11.0]])
        labels = np.asarray([0, 0, 1, 1])
        values = silhouette_samples(pairwise_distances(points), labels)
        # For point 0: a = 1, b = (10 + 11)/2 = 10.5, s = 9.5/10.5.
        assert values[0] == pytest.approx(9.5 / 10.5)


class TestClusterAndMean:
    def test_mean_is_average(self, rng):
        points, labels = _two_blobs(rng)
        distances = pairwise_distances(points)
        assert mean_silhouette(distances, labels) == pytest.approx(
            silhouette_samples(distances, labels).mean()
        )


class TestMonteCarlo:
    def test_close_to_exact_on_blobs(self, rng):
        points, labels = _two_blobs(rng, n_per=300)
        exact = mean_silhouette(pairwise_distances(points), labels)
        estimate = monte_carlo_silhouette(
            points, labels, n_subsamples=8, subsample_size=100, rng=rng
        )
        assert estimate == pytest.approx(exact, abs=0.05)

    def test_small_input_falls_back_to_exact(self, rng):
        points, labels = _two_blobs(rng, n_per=20)
        exact = mean_silhouette(pairwise_distances(points), labels)
        estimate = monte_carlo_silhouette(
            points, labels, subsample_size=1000, rng=rng
        )
        assert estimate == pytest.approx(exact)

    def test_degenerate_subsamples_skipped(self, rng):
        # One huge cluster + a tiny one: some subsamples see only one
        # label and must be skipped, not crash.
        points = np.vstack([
            rng.normal(0, 1, (500, 2)),
            rng.normal(20, 1, (3, 2)),
        ])
        labels = np.asarray([0] * 500 + [1] * 3)
        value = monte_carlo_silhouette(
            points, labels, n_subsamples=4, subsample_size=50, rng=rng
        )
        assert -1.0 <= value <= 1.0

    def test_invalid_arguments_rejected(self, rng):
        points, labels = _two_blobs(rng, n_per=10)
        with pytest.raises(ValueError):
            monte_carlo_silhouette(points, labels, n_subsamples=0, rng=rng)
        with pytest.raises(ValueError):
            monte_carlo_silhouette(points, labels, subsample_size=1, rng=rng)
        with pytest.raises(ValueError):
            monte_carlo_silhouette(points, labels[:-1], rng=rng)


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=40),
    k=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=999),
)
def test_silhouette_always_bounded(n, k, seed):
    rng = np.random.default_rng(seed)
    points = rng.normal(0, 1, (n, 2))
    labels = rng.integers(0, k, n)
    values = silhouette_samples(pairwise_distances(points), labels)
    assert values.shape == (n,)
    assert (values >= -1.0).all() and (values <= 1.0).all()
