"""Figure 1 — the navigation walkthrough on the countries table.

Each panel of the paper's Figure 1 on the OECD-shaped dataset
(6,823 × 378), as bounds on what the system computes:

* **1a** — the theme list separates labor, unemployment and health;
* **1b** — the labor-conditions map is a 3-region hierarchy split on
  *% employees working long hours ≈ 20* and *average income ≈ 22 k$*;
* **1c** — highlighting the country names of the short-hours /
  high-income region surfaces the Switzerland / Norway / Canada class;
* **1d** — projecting that region onto the unemployment theme splits
  it on *unemployment ≈ 8*.
"""

from __future__ import annotations

import pytest

from repro.core.config import BlaeuConfig
from repro.core.engine import Blaeu
from repro.core.pipeline import build_map
from repro.core.themes import extract_themes
from repro.datasets.oecd import (
    HIGH_INCOME_COUNTRIES,
    LABOR_THEME,
    UNEMPLOYMENT_THEME,
    oecd,
)
from repro.viz.render import render_map

HOURS, INCOME = LABOR_THEME[:2]


@pytest.fixture(scope="module")
def engine():
    blaeu = Blaeu(BlaeuConfig())
    blaeu.register(oecd())
    return blaeu


@pytest.fixture
def explorer(engine):
    """A session on the labor map, with the region Figure 1c describes."""
    explorer = engine.explore("countries")
    data_map = explorer.open_columns(LABOR_THEME)
    # Short hours *and* high income: the first split may be on either
    # column, so pick by the exemplars, not by position in the tree.
    short_hours = [
        leaf
        for leaf in data_map.leaves()
        if leaf.exemplar[HOURS] is not None and leaf.exemplar[HOURS] < 20
    ]
    region = max(short_hours, key=lambda leaf: leaf.exemplar[INCOME])
    return explorer, region


def _splits(data_map) -> list[tuple[str, float]]:
    """``(column, threshold)`` of every numeric split, root first —
    read off the ``<`` child each split produces."""
    labels = (region.label.rpartition(" < ") for region in data_map.regions())
    return [(column, float(value)) for column, found, value in labels if found]


def test_fig1a_theme_list(engine):
    themes = extract_themes(
        engine.database.table("countries"),
        config=engine.config,
    )
    labor = themes.theme_of(HOURS)
    unemployment = themes.theme_of(UNEMPLOYMENT_THEME[0])
    health = themes.theme_of("Life Expectancy")

    assert LABOR_THEME[2] in labor.columns  # leisure travels with hours
    assert set(UNEMPLOYMENT_THEME) <= set(unemployment.columns)
    assert {"%People w/ Health Insurance", "Health Spending"} <= set(health.columns)
    assert len({labor.name, unemployment.name, health.name}) == 3


def test_fig1b_initial_map(engine):
    # The paper's Fig 1b map has three regions; k=3 reproduces the figure
    # (silhouette-selected k on this data hovers between 2 and 3).
    data_map = build_map(
        engine.database.table("countries"),
        LABOR_THEME,
        config=engine.config,
        k=3,
    )
    assert data_map.k == 3
    thresholds = dict(_splits(data_map))
    assert 15 <= thresholds[HOURS] <= 25  # paper: 20
    assert 18 <= thresholds[INCOME] <= 30  # paper: 22
    assert HOURS in render_map(data_map)


def test_fig1c_highlight_surfaces_high_income_countries(explorer):
    explorer, region = explorer
    highlight = explorer.highlight(region.region_id, columns=("CountryName",))
    top8 = list(highlight.category_counts["CountryName"])[:8]
    # Switzerland, Norway, Canada "appear as countries with high incomes
    # and relatively low working hours".
    assert len(set(top8) & HIGH_INCOME_COUNTRIES) >= 6, top8


def test_fig1d_projection_splits_on_unemployment(explorer):
    explorer, region = explorer
    explorer.zoom(region.region_id)
    projected = explorer.project_columns(UNEMPLOYMENT_THEME)

    assert projected.columns == UNEMPLOYMENT_THEME
    assert projected.n_rows == region.n_rows
    unemployment = [t for column, t in _splits(projected) if column == "Unemployment"]
    assert unemployment and 5 <= unemployment[0] <= 14  # paper: 8
    assert "Unemployment" in render_map(projected)
