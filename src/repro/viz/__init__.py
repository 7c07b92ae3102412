"""Presentation layer: the D3/HTML client's stand-in.

The paper's client renders data maps with D3 (Figures 5–6).  Pixels are
out of scope here, but everything that *feeds* the pixels is in: a
slice-and-dice treemap layout (area ∝ tuple count, exactly the property
Figure 1 describes), deterministic ASCII renderings of the theme view and
map view, text histograms/scatter plots for the highlight inspectors, and
D3-ready JSON export.
"""

from repro.viz.charts import text_histogram, text_scatter
from repro.viz.export import export_map_json, export_themes_json
from repro.viz.render import render_map, render_region_panel, render_theme_view
from repro.viz.treemap import Rect, treemap_layout

__all__ = [
    "Rect",
    "export_map_json",
    "export_themes_json",
    "render_map",
    "render_region_panel",
    "render_theme_view",
    "text_histogram",
    "text_scatter",
    "treemap_layout",
]
