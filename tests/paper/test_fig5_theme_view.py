"""Figure 5 — the theme view is only useful if the themes are right.

Scores theme recovery — the paper's method, PAM on the dependency
graph — against the generator's planted column groups (36 filler groups
+ labor + unemployment + health on the full 378-column table) with NMI
over column labels.
"""

from __future__ import annotations

import numpy as np

from oracles import clustering_nmi
from repro.datasets.oecd import HEALTH_THEME, LABOR_THEME, UNEMPLOYMENT_THEME, oecd
from repro.graph.dependency import GraphBuilder
from repro.graph.partition import pam_partition

NAMED_THEMES = {
    "labor": LABOR_THEME,
    "unemployment": UNEMPLOYMENT_THEME,
    "health": HEALTH_THEME,
}


def _planted_group(column: str) -> str | None:
    """The generator's group of ``column`` (``None``: a key or a loner)."""
    for group, members in NAMED_THEMES.items():
        if column in members:
            return group
    if " Indicator " in column:
        return column.rsplit(" Indicator ", 1)[0]
    return None


def test_fig5_pam_on_the_dependency_graph_recovers_the_planted_themes():
    table = oecd()
    columns = tuple(
        c for c in table.column_names if c not in ("RegionName", "CountryName")
    )
    graph = GraphBuilder().build(table, columns=columns, sample=1000)
    groups, _ = pam_partition(graph, k_values=(30, 40, 45, 50))

    found = {column: g for g, group in enumerate(groups) for column in group}
    planted = {column: _planted_group(column) for column in found}
    scored = [column for column, group in planted.items() if group is not None]
    names = sorted({planted[column] for column in scored})
    assert len(names) == 39
    nmi = clustering_nmi(
        np.asarray([found[column] for column in scored]),
        np.asarray([names.index(planted[column]) for column in scored]),
    )
    assert nmi > 0.9, nmi
