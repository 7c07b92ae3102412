"""Unit tests for theme extraction and editing."""

import pytest

from repro.core.config import BlaeuConfig
from repro.core.themes import default_theme_k_grid, extract_themes
from repro.table.column import CategoricalColumn, NumericColumn
from repro.table.table import Table
from synthetic import planted_themes


@pytest.fixture(scope="module")
def themed_set():
    planted = planted_themes(
        n_rows=500,
        group_sizes={"eco": 4, "health": 4, "env": 4},
        noise=0.3,
        seed=21,
    )
    themes = extract_themes(
        planted.table,
        config=BlaeuConfig(theme_k_values=(2, 3, 4, 5)),
    )
    return planted, themes


class TestExtractThemes:
    def test_recovers_planted_groups(self, themed_set):
        planted, themes = themed_set
        assert len(themes) == 3
        for group in planted.groups.values():
            owner = themes.theme_of(group[0])
            assert set(group) == set(owner.columns)

    def test_theme_named_after_medoid_member(self, themed_set):
        _, themes = themed_set
        for theme in themes:
            assert theme.name in theme.columns
            assert theme.name == theme.columns[0]

    def test_cohesion_in_unit_interval(self, themed_set):
        _, themes = themed_set
        for theme in themes:
            assert 0.0 <= theme.cohesion <= 1.0

    def test_largest_theme_first(self, themed_set):
        _, themes = themed_set
        sizes = [t.size for t in themes]
        assert sizes == sorted(sizes, reverse=True)

    def test_k_scores_recorded(self, themed_set):
        _, themes = themed_set
        assert set(themes.k_scores) == {2, 3, 4, 5}

    def test_keys_excluded(self):
        planted = planted_themes(n_rows=200, seed=3)
        row_id = CategoricalColumn.from_labels(
            "row_id", [f"r{i}" for i in range(200)]
        )
        table = Table(planted.table.name, [*planted.table.columns, row_id])
        themes = extract_themes(table)
        assert "row_id" in themes.excluded_keys
        with pytest.raises(KeyError):
            themes.theme_of("row_id")

    def test_wide_categoricals_excluded(self):
        planted = planted_themes(n_rows=300, seed=4)
        labels = [f"region{i % 200}" for i in range(300)]
        region = CategoricalColumn.from_labels("region", labels)
        table = Table(planted.table.name, [*planted.table.columns, region])
        themes = extract_themes(table)
        assert "region" in themes.excluded_keys

    def test_too_few_columns_rejected(self, rng):
        table = Table("t", [NumericColumn("only", rng.normal(0, 1, 30))])
        with pytest.raises(ValueError, match="at least two"):
            extract_themes(table)

    def test_lookup_api(self, themed_set):
        _, themes = themed_set
        name = themes.names()[0]
        assert themes.theme(name).name == name
        assert themes[0].name == name
        with pytest.raises(KeyError):
            themes.theme("nope")
        with pytest.raises(KeyError):
            themes.theme_of("nope")


class TestDefaultKGrid:
    def test_small_tables(self):
        assert default_theme_k_grid(2) == (2,)
        assert default_theme_k_grid(5) == (2, 3)

    def test_grid_is_increasing_and_bounded(self):
        for n in (10, 50, 200, 400):
            grid = default_theme_k_grid(n)
            assert list(grid) == sorted(set(grid))
            assert grid[0] == 2
            assert grid[-1] <= n - 1
            assert len(grid) <= 14
