"""Unit and property tests for distance computations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.cluster.distance import (
    distances_to_points,
    pairwise_distances,
    validate_distance_matrix,
)


class TestEuclidean:
    def test_matches_direct_computation(self, rng):
        points = rng.normal(0, 1, (20, 3))
        fast = pairwise_distances(points)
        for i in range(20):
            for j in range(20):
                direct = np.linalg.norm(points[i] - points[j])
                assert fast[i, j] == pytest.approx(direct, abs=1e-9)

    def test_identical_points_zero(self):
        points = np.ones((3, 2))
        assert pairwise_distances(points).max() == 0.0

    def test_one_dimensional_rejected(self):
        with pytest.raises(ValueError):
            pairwise_distances(np.asarray([1.0, 2.0]))


class TestDistancesToPoints:
    def test_euclidean_matches_full_matrix(self, rng):
        points = rng.normal(0, 1, (12, 3))
        full = pairwise_distances(points)
        partial = distances_to_points(points, points[[2, 7]])
        np.testing.assert_allclose(partial[:, 0], full[:, 2], atol=1e-9)
        np.testing.assert_allclose(partial[:, 1], full[:, 7], atol=1e-9)

    def test_dimension_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            distances_to_points(rng.normal(0, 1, (5, 3)), rng.normal(0, 1, (2, 4)))

    def test_a_one_dimensional_point_set_is_rejected(self, rng):
        with pytest.raises(ValueError):
            distances_to_points(np.asarray([1.0, 2.0]), rng.normal(0, 1, (2, 1)))


class TestValidate:
    def test_accepts_valid(self, rng):
        points = rng.normal(0, 1, (6, 2))
        validate_distance_matrix(pairwise_distances(points))

    def test_rejects_asymmetric(self):
        bad = np.asarray([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            validate_distance_matrix(bad)

    def test_rejects_nonzero_diagonal(self):
        bad = np.asarray([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="diagonal"):
            validate_distance_matrix(bad)

    def test_rejects_negative(self):
        bad = np.asarray([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(ValueError, match="non-negative"):
            validate_distance_matrix(bad)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            validate_distance_matrix(np.zeros((2, 3)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_float_matrix_keeps_its_dtype(self, dtype):
        """PAM and the silhouette take any float matrix a caller hands
        in, float32 included."""
        matrix = np.asarray([[0.0, 1.5], [1.5, 0.0]], dtype=dtype)
        assert validate_distance_matrix(matrix).dtype == dtype

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64, np.uint8, bool])
    def test_any_other_matrix_is_promoted_to_float64(self, dtype):
        matrix = np.asarray([[0, 1], [1, 0]], dtype=dtype)
        validated = validate_distance_matrix(matrix)
        assert validated.dtype == np.float64
        assert validated.tolist() == [[0.0, 1.0], [1.0, 0.0]]


#: Point dtypes a caller may hand the kernels; each computes in float64.
_POINT_DTYPES = [np.float32, np.float64, np.int32, np.int64, bool]


def _points_of(rng, dtype):
    values = rng.normal(0, 3, (9, 4))
    return (values > 0 if dtype is bool else values).astype(dtype)


class TestOneDtype:
    """Every distance is float64: a point set of another dtype is read
    as float64, never computed in its own precision."""

    @pytest.mark.parametrize("dtype", _POINT_DTYPES)
    def test_pairwise_distances_compute_in_float64(self, rng, dtype):
        points = _points_of(rng, dtype)
        distances = pairwise_distances(points)
        assert distances.dtype == np.float64
        assert np.array_equal(
            distances, pairwise_distances(points.astype(np.float64))
        )

    @pytest.mark.parametrize("dtype", _POINT_DTYPES)
    def test_distances_to_points_compute_in_float64(self, rng, dtype):
        points = _points_of(rng, dtype)
        distances = distances_to_points(points, points[[1, 4]])
        assert distances.dtype == np.float64
        assert np.array_equal(
            distances,
            distances_to_points(
                points.astype(np.float64), points[[1, 4]].astype(np.float64)
            ),
        )


_matrices = arrays(
    np.float64,
    st.tuples(st.integers(2, 12), st.integers(1, 4)),
    elements=st.floats(min_value=-100, max_value=100, allow_nan=False),
)


@settings(max_examples=60, deadline=None)
@given(points=_matrices)
def test_metric_axioms(points):
    distances = pairwise_distances(points)
    n = points.shape[0]
    assert distances.shape == (n, n)
    assert distances.dtype == np.float64
    assert np.allclose(distances, distances.T, atol=1e-8)
    assert np.allclose(np.diag(distances), 0.0, atol=1e-9)
    assert distances.min() >= -1e-12


@settings(max_examples=40, deadline=None)
@given(points=_matrices)
def test_triangle_inequality_euclidean(points):
    distances = pairwise_distances(points)
    n = points.shape[0]
    for i in range(min(n, 5)):
        for j in range(min(n, 5)):
            for k in range(min(n, 5)):
                assert distances[i, j] <= distances[i, k] + distances[k, j] + 1e-6
