"""Unit tests for the ASCII theme-view and map-view renderers."""

import pytest

from repro.core.config import BlaeuConfig
from repro.core.navigation import Explorer
from repro.core.themes import extract_themes
from repro.viz.render import render_map, render_region_panel, render_theme_view
from synthetic import mixed_blobs, planted_themes


@pytest.fixture(scope="module")
def session():
    planted = mixed_blobs(n_rows=300, k=2, seed=91)
    explorer = Explorer(planted.table, config=BlaeuConfig(map_k_values=(2, 3)))
    data_map = explorer.open_columns(("x0", "x1", "cat0"))
    return explorer, data_map


class TestRenderMap:
    def test_header_and_stats(self, session):
        _, data_map = session
        text = render_map(data_map)
        assert "DATA MAP" in text
        assert f"k={data_map.k}" in text
        assert "silhouette" in text and "fidelity" in text

    def test_every_region_listed(self, session):
        _, data_map = session
        text = render_map(data_map)
        for region in data_map.regions():
            assert f"[{region.region_id}]" in text

    def test_indentation_follows_depth(self, session):
        _, data_map = session
        lines = render_map(data_map).splitlines()
        for region in data_map.regions():
            line = next(l for l in lines if f"[{region.region_id}]" in l)
            assert line.startswith("  " * region.depth + "[")

    def test_leaves_carry_share_bars(self, session):
        _, data_map = session
        assert "▇" in render_map(data_map)

    def test_deterministic(self, session):
        _, data_map = session
        assert render_map(data_map) == render_map(data_map)


class TestRenderThemeView:
    def test_lists_every_theme(self):
        planted = planted_themes(
            n_rows=300, group_sizes={"eco": 3, "env": 3}, seed=5
        )
        themes = extract_themes(
            planted.table,
            config=BlaeuConfig(theme_k_values=(2, 3)),
        )
        text = render_theme_view(themes)
        assert "THEMES" in text
        for theme in themes:
            assert theme.name in text

    def test_column_overflow_elided(self):
        planted = planted_themes(
            n_rows=200, group_sizes={"big": 9}, seed=6
        )
        themes = extract_themes(
            planted.table,
            config=BlaeuConfig(theme_k_values=(2,)),
        )
        text = render_theme_view(themes, max_columns=3)
        assert "… and" in text


class TestRegionPanel:
    def test_panel_contents(self, session):
        explorer, data_map = session
        leaf = data_map.leaves()[0]
        highlight = explorer.highlight(leaf.region_id)
        text = render_region_panel(highlight)
        assert f"REGION {leaf.region_id}" in text
        assert f"{highlight.n_rows} tuples" in text
        assert "preview:" in text
        assert "x0:" in text  # numeric summary line

    def test_missing_values_rendered_as_symbol(self, session):
        explorer, data_map = session
        planted = mixed_blobs(n_rows=100, k=2, missing_rate=0.5, seed=93)
        inner = Explorer(
            planted.table, config=BlaeuConfig(map_k_values=(2,))
        )
        inner_map = inner.open_columns(("x0", "cat0"))
        highlight = inner.highlight(inner_map.root.region_id)
        text = render_region_panel(highlight)
        assert "∅" in text
