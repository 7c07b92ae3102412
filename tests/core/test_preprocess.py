"""Unit tests for the preprocessing stage (paper §3, stage 1)."""

import numpy as np
import pytest

from repro.core.preprocess import preprocess
from repro.table.column import CategoricalColumn, NumericColumn
from repro.table.table import Table


def _features(space, column):
    """Indices of the matrix columns derived from ``column``."""
    return [i for i, source in enumerate(space.source_columns) if source == column]


@pytest.fixture
def mixed_table(rng):
    n = 60
    return Table(
        "t",
        [
            CategoricalColumn.from_labels("id", [f"row{i}" for i in range(n)]),
            NumericColumn("income", rng.normal(30, 10, n)),
            NumericColumn("hours", rng.normal(40, 5, n)),
            CategoricalColumn.from_labels(
                "city", list(rng.choice(["ams", "nyc", "sfo"], n))
            ),
        ],
    )


class TestPreprocess:
    def test_keys_dropped(self, mixed_table):
        space = preprocess(mixed_table)
        assert space.dropped_keys == ("id",)
        assert "id" not in space.used_columns

    def test_numeric_columns_standardized(self, mixed_table):
        space = preprocess(mixed_table)
        income = space.matrix[:, _features(space, "income")[0]]
        assert income.mean() == pytest.approx(0.0, abs=1e-9)
        assert income.std() == pytest.approx(1.0, abs=1e-9)

    def test_dummy_coding(self, mixed_table):
        space = preprocess(mixed_table)
        city_features = _features(space, "city")
        assert len(city_features) == 3
        block = space.matrix[:, city_features]
        # One-hot: each row has exactly one 1 among the city dummies.
        assert (block.sum(axis=1) == 1.0).all()
        assert set(np.unique(block).tolist()) == {0.0, 1.0}

    def test_feature_names_and_masks(self, mixed_table):
        space = preprocess(mixed_table)
        assert "income" in space.feature_names
        assert any(name.startswith("city=") for name in space.feature_names)
        assert space.numeric_mask.sum() == 2
        assert space.matrix.shape[1] == 5

    def test_matrix_is_nan_free_despite_missing(self, rng):
        values = rng.normal(0, 1, 40)
        values[:8] = np.nan
        table = Table(
            "t",
            [
                NumericColumn("x", values),
                CategoricalColumn.from_labels(
                    "c", ["a"] * 20 + [None] * 5 + ["b"] * 15
                ),
            ],
        )
        space = preprocess(table)
        assert not np.isnan(space.matrix).any()
        # Missing numeric = mean imputation = 0 after z-scoring.
        assert (space.matrix[:8, _features(space, "x")[0]] == 0.0).all()
        # Missing categorical = all-zero dummy block.
        c_block = space.matrix[20:25][:, _features(space, "c")]
        assert (c_block == 0.0).all()

    def test_wide_categorical_excluded(self, rng):
        table = Table(
            "t",
            [
                NumericColumn("x", rng.normal(0, 1, 100)),
                CategoricalColumn.from_labels(
                    "wide", [f"v{i % 80}" for i in range(100)]
                ),
            ],
        )
        space = preprocess(table, max_categorical_cardinality=50)
        assert space.dropped_wide == ("wide",)
        assert space.matrix.shape[1] == 1

    def test_column_subset(self, mixed_table):
        space = preprocess(mixed_table, columns=("income", "city"))
        assert set(space.used_columns) == {"income", "city"}

    def test_keys_are_looked_for_among_the_requested_columns_only(
        self, mixed_table, monkeypatch
    ):
        from repro.table.schema import KeyScan

        tested = []
        is_key = KeyScan._is_key
        monkeypatch.setattr(
            KeyScan,
            "_is_key",
            lambda self, column: tested.append(column.name) or is_key(self, column),
        )
        space = preprocess(mixed_table, columns=("income", "id"))
        assert tested == ["income", "id"]
        assert space.dropped_keys == ("id",)

    def test_unknown_column_rejected(self, mixed_table):
        with pytest.raises(KeyError):
            preprocess(mixed_table, columns=("nope",))

    def test_no_features_left_rejected(self):
        table = Table(
            "t",
            [CategoricalColumn.from_labels("id", ["a", "b", "c"])],
        )
        with pytest.raises(ValueError, match="no features"):
            preprocess(table)

    def test_scalers_invert_medoid_coordinates(self, mixed_table):
        space = preprocess(mixed_table)
        stats = space.scalers["income"]
        original = mixed_table.column("income").values
        scaled = space.matrix[:, _features(space, "income")[0]]
        np.testing.assert_allclose(
            scaled * stats.scale + stats.center, original, rtol=1e-9
        )

    def test_constant_numeric_column_tolerated(self, rng):
        table = Table(
            "t",
            [
                NumericColumn("const", np.full(30, 7.0)),
                NumericColumn("x", rng.normal(0, 1, 30)),
            ],
        )
        space = preprocess(table)
        const = space.matrix[:, _features(space, "const")[0]]
        assert (const == 0.0).all()
