"""ASCII renderings of the theme view and the map view (Figures 5–6).

Blaeu's two screens — the theme browser and the data map — are rendered
here as deterministic text, which demos print and tests assert on.
The map view shows the region hierarchy as an indented tree annotated
with tuple counts, shares and (for leaves) silhouettes; an optional bar
gives each leaf's area at a glance, preserving the paper's "area shows
the number of tuples" reading in one dimension.
"""

from __future__ import annotations

from repro.core.datamap import DataMap, Region
from repro.core.navigation import Highlight
from repro.core.themes import ThemeSet

__all__ = ["render_theme_view", "render_map", "render_region_panel"]

_BAR_WIDTH = 24


def render_theme_view(themes: ThemeSet, max_columns: int = 6) -> str:
    """The theme browser: one block per theme, columns listed under it."""
    lines: list[str] = ["THEMES", "======"]
    for position, theme in enumerate(themes):
        lines.append(
            f"[{position}] {theme.name}  "
            f"({theme.size} columns, cohesion {theme.cohesion:.2f})"
        )
        shown = theme.columns[:max_columns]
        for column in shown:
            lines.append(f"      - {column}")
        hidden = theme.size - len(shown)
        if hidden > 0:
            lines.append(f"      … and {hidden} more")
    lines.append(
        f"(partition silhouette {themes.silhouette:.2f}; "
        f"{len(themes.excluded_keys)} key column(s) excluded)"
    )
    return "\n".join(lines)


def render_map(data_map: DataMap) -> str:
    """The map view: the region hierarchy as an indented tree, each leaf
    with a bar of its share."""
    lines: list[str] = [
        (
            f"DATA MAP over {', '.join(data_map.columns[:4])}"
            + ("…" if len(data_map.columns) > 4 else "")
        ),
        (
            f"{data_map.n_rows} tuples | k={data_map.k} | "
            f"silhouette {data_map.silhouette:.2f} | "
            f"fidelity {data_map.fidelity:.2f} | "
            f"sample {data_map.sample_size}"
            + (
                f" | counts {data_map.counts_status}"
                if data_map.counts_status != "exact"
                else ""
            )
        ),
        "",
    ]
    _render_region(data_map.root, data_map.n_rows, lines)
    return "\n".join(lines)


def _render_region(region: Region, total: int, lines: list[str]) -> None:
    indent = "  " * region.depth
    share = region.fraction_of(total)
    parts = [f"{indent}[{region.region_id}] {region.label}"]
    if region.n_rows_error is not None:
        parts.append(f"(~{region.n_rows}±{region.n_rows_error} tuples, {share:5.1%})")
    else:
        parts.append(f"({region.n_rows} tuples, {share:5.1%})")
    if region.is_leaf:
        if region.silhouette is not None:
            parts.append(f"s={region.silhouette:.2f}")
        filled = round(share * _BAR_WIDTH)
        parts.append("▇" * max(filled, 1 if region.n_rows else 0))
    lines.append(" ".join(parts))
    for child in region.children:
        _render_region(child, total, lines)


def render_region_panel(highlight: Highlight) -> str:
    """The left-hand information panel of the map view (Figure 6).

    Shows the highlighted region's size, a bounded tuple preview and the
    univariate summaries the prototype's inspector charts are built from.
    """
    lines = [
        f"REGION {highlight.region_id}",
        f"{highlight.n_rows} tuples | columns: {', '.join(highlight.columns)}",
        "",
    ]
    if highlight.preview:
        lines.append("preview:")
        for row in highlight.preview:
            rendered = ", ".join(
                f"{k}={_fmt(v)}" for k, v in row.items()
            )
            lines.append(f"  {rendered}")
    for name, stats in highlight.numeric_summaries.items():
        lines.append(
            f"{name}: min {_fmt(stats['min'])}  median {_fmt(stats['median'])}  "
            f"mean {_fmt(stats['mean'])}  max {_fmt(stats['max'])}"
        )
    for name, counts in highlight.category_counts.items():
        top = list(counts.items())[:5]
        rendered = ", ".join(f"{label} ({count})" for label, count in top)
        lines.append(f"{name}: {rendered}")
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if value is None:
        return "∅"
    if isinstance(value, float):
        return f"{value:.3g}"
    return str(value)
