"""§2 claim — maps quantize the query space into Select-Project queries.

"With Blaeu, our users implicitly formulate and refine Select-Project
queries … Blaeu quantizes the query space: to refine their queries, the
users need only to consider a few discrete alternatives."  Every
one-click query's predicate must select exactly the tuples its region
reports, at every step of a navigation session, and the alternatives
must stay a handful.
"""

from __future__ import annotations

from repro.core.config import BlaeuConfig
from repro.core.navigation import Explorer
from repro.core.queries import quantized_queries
from repro.datasets.hollywood import hollywood

K_VALUES = (2, 3, 4)


def _one_click_queries(explorer):
    """The state's quantized queries, each checked against the table."""
    state = explorer.state
    queries = quantized_queries(explorer.table, state.map, state.selection)
    for query in queries:
        assert explorer.table.select(query.predicate).n_rows == query.n_rows
    return queries


def test_sql_predicates_select_what_the_regions_report_across_a_session():
    explorer = Explorer(hollywood(), config=BlaeuConfig(map_k_values=K_VALUES))
    data_map = explorer.open_columns(
        ("Budget", "WorldwideGross", "Profitability", "RottenTomatoes")
    )
    # A handful of discrete choices, not a continuous space: at most 2k
    # regions per level, plus the root.
    assert 1 < len(_one_click_queries(explorer)) <= 2 * max(K_VALUES) * 2 + 1

    target = max(data_map.leaves(), key=lambda region: region.n_rows)
    zoomed = explorer.zoom(target.region_id)
    # The zoomed selection is the region the user clicked.
    selected = explorer.table.select(explorer.state.selection).n_rows
    assert selected == zoomed.n_rows == target.n_rows
    _one_click_queries(explorer)

    explorer.rollback()
    assert explorer.state.map is data_map
