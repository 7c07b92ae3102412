"""Figure 6 — the map view: leaf area proportional to tuple count.

The geometry invariant that makes the visualization honest, on the
paper's Hollywood demo at the canvas size the client draws.  (The
region info panel of the same figure is `tests/viz/test_render.py`'s.)
"""

from __future__ import annotations

from repro.core.config import BlaeuConfig
from repro.core.navigation import Explorer
from repro.datasets.hollywood import hollywood
from repro.viz.treemap import treemap_layout



def test_fig6_treemap_area_is_proportional_to_tuple_count():
    explorer = Explorer(hollywood(), config=BlaeuConfig(map_k_values=(2, 3, 4)))
    data_map = explorer.open_columns(
        ("Budget", "WorldwideGross", "Profitability", "RottenTomatoes")
    )
    rectangles = treemap_layout(data_map)
    assert len(rectangles) > 1
    for region in data_map.regions():
        expected = region.n_rows / data_map.n_rows
        rect = rectangles[region.region_id]
        assert abs(rect.width * rect.height - expected) < 1e-12
