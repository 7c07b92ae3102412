"""Unit and property tests for the z-score scaler."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.normalize import zscore


class TestZScore:
    def test_centers_and_scales(self, rng):
        values = rng.normal(10, 3, 500)
        scaled, stats = zscore(values)
        assert scaled.mean() == pytest.approx(0.0, abs=1e-9)
        assert scaled.std() == pytest.approx(1.0, abs=1e-9)
        assert stats.center == pytest.approx(values.mean())

    def test_nan_transparent(self):
        values = np.asarray([1.0, np.nan, 3.0])
        scaled, _ = zscore(values)
        assert np.isnan(scaled[1])
        assert not np.isnan(scaled[[0, 2]]).any()

    def test_constant_column_maps_to_zero(self):
        scaled, stats = zscore(np.asarray([5.0, 5.0, 5.0]))
        assert scaled.tolist() == [0.0, 0.0, 0.0]
        assert stats.scale == 0.0

    def test_all_missing(self):
        scaled, _ = zscore(np.asarray([np.nan, np.nan]))
        assert np.isnan(scaled).all()


_vectors = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    min_size=1,
    max_size=60,
)


@settings(max_examples=100, deadline=None)
@given(values=_vectors)
def test_scalers_roundtrip(values):
    array = np.asarray(values)
    scaled, stats = zscore(array)
    if stats.scale == 0.0:
        return  # constant columns are deliberately not invertible
    back = scaled * stats.scale + stats.center
    np.testing.assert_allclose(back, array, rtol=1e-9, atol=1e-6)


@settings(max_examples=100, deadline=None)
@given(values=_vectors)
def test_scalers_preserve_shape_and_missingness(values):
    array = np.asarray(values)
    array = np.where(np.arange(array.size) % 5 == 0, np.nan, array)
    scaled, _ = zscore(array)
    assert scaled.shape == array.shape
    assert (np.isnan(scaled) == np.isnan(array)).all()
