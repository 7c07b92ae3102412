"""Figure 2 — the dependency graph over unemployment + health columns.

The paper's Figure 2 draws a weighted graph whose two visible
communities are the unemployment columns (Unemployment, Long Term
Unemp., Female Unemp.) and the health columns (Health Insurance, Life
Expectancy, Health Spendings): within-community dependencies must
dominate the between-community ones.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.oecd import HEALTH_THEME, UNEMPLOYMENT_THEME, oecd
from repro.graph.dependency import GraphBuilder

FIGURE_COLUMNS = UNEMPLOYMENT_THEME + HEALTH_THEME


def test_fig2_two_communities_are_visible_in_the_weights():
    graph = GraphBuilder().build(oecd(), columns=FIGURE_COLUMNS, sample=1000)
    intra, inter = [], []
    for i, a in enumerate(FIGURE_COLUMNS):
        for b in FIGURE_COLUMNS[i + 1 :]:
            same = (a in UNEMPLOYMENT_THEME) == (b in UNEMPLOYMENT_THEME)
            (intra if same else inter).append(graph.weight(a, b))
    assert np.mean(intra) > 3 * np.mean(inter), (np.mean(intra), np.mean(inter))
