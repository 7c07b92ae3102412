"""Unit tests for the synthetic ground-truth generators."""

import numpy as np
import pytest

from oracles import column_dependency
from repro.table.column import ColumnKind
from synthetic import mixed_blobs, numeric_blobs, planted_themes



class TestNumericBlobs:
    def test_shape(self):
        planted = numeric_blobs(n_rows=200, k=3, n_features=4)
        assert planted.table.n_rows == 200
        assert planted.table.n_columns == 4
        assert planted.labels.shape == (200,)
        assert planted.k == 3

    def test_seed_reproducibility(self):
        a = numeric_blobs(seed=5)
        b = numeric_blobs(seed=5)
        assert (a.labels == b.labels).all()
        np.testing.assert_array_equal(
            a.table.column("x0").values, b.table.column("x0").values
        )

    def test_noise_features_added(self):
        planted = numeric_blobs(n_rows=100, n_features=2, n_noise_features=3)
        assert planted.table.n_columns == 5
        assert "noise0" in planted.table.column_names

    def test_missing_rate(self):
        planted = numeric_blobs(n_rows=2000, missing_rate=0.1, seed=9)
        missing = planted.table.column("x0").n_missing
        assert 120 < missing < 280  # ~200 expected

    def test_weights_control_sizes(self):
        planted = numeric_blobs(
            n_rows=1000, k=2, weights=(9.0, 1.0), seed=4
        )
        counts = np.bincount(planted.labels)
        assert counts[0] > 4 * counts[1]

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            numeric_blobs(k=0)
        with pytest.raises(ValueError):
            numeric_blobs(missing_rate=1.0)
        with pytest.raises(ValueError):
            numeric_blobs(k=2, weights=(1.0,))


class TestMixedBlobs:
    def test_shape_and_kinds(self):
        planted = mixed_blobs(n_rows=150, k=2, n_numeric=3, n_categorical=2)
        assert planted.table.n_columns == 5
        kinds = [c.kind for c in planted.table.columns]
        assert kinds.count(ColumnKind.CATEGORICAL) == 2

    def test_categoricals_track_clusters(self):
        planted = mixed_blobs(n_rows=500, k=2, category_fidelity=0.95, seed=6)
        cat = planted.table.column("cat0")
        # Labels should carry most of the cluster information.
        agreement = np.mean([
            label is not None and label.endswith(str(cluster))
            for label, cluster in zip(cat.labels(), planted.labels)
        ])
        assert agreement > 0.85

    def test_invalid_fidelity(self):
        with pytest.raises(ValueError):
            mixed_blobs(category_fidelity=0.0)


class TestPlantedThemes:
    def test_groups_cover_columns(self):
        planted = planted_themes(group_sizes={"a": 3, "b": 2})
        flat = [c for cols in planted.groups.values() for c in cols]
        assert sorted(flat) == sorted(planted.table.column_names)

    def test_theme_of(self):
        planted = planted_themes(group_sizes={"a": 2, "b": 2})
        assert planted.theme_of("a_0") == "a"
        with pytest.raises(KeyError):
            planted.theme_of("nope")

    def test_column_labels_align(self):
        planted = planted_themes(group_sizes={"a": 2, "b": 2})
        labels = planted.column_labels(("a_0", "b_0", "a_1"))
        assert labels.tolist() == [0, 1, 0]

    def test_within_dependency_beats_across(self):
        planted = planted_themes(
            n_rows=500, group_sizes={"a": 2, "b": 2}, noise=0.3, seed=2
        )
        table = planted.table
        within = column_dependency(table.column("a_0"), table.column("a_1"))
        across = column_dependency(table.column("a_0"), table.column("b_0"))
        assert within > 2 * across

    def test_invalid_groups(self):
        with pytest.raises(ValueError):
            planted_themes(group_sizes={})
        with pytest.raises(ValueError):
            planted_themes(group_sizes={"a": 0})
