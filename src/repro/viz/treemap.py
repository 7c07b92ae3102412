"""Slice-and-dice treemap layout for data maps.

"The area of the leaves shows the number of tuples covered" (paper §2).
This module computes the rectangle geometry: the root region gets the
unit canvas and every internal region splits its rectangle among its
children proportionally to tuple counts, alternating horizontal and
vertical cuts by depth (the classic slice-and-dice scheme, which matches
the nested-boxes look of Figure 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.datamap import DataMap, Region

__all__ = ["Rect", "treemap_layout"]


@dataclass(frozen=True)
class Rect:
    """An axis-aligned rectangle in layout coordinates."""

    x: float
    y: float
    width: float
    height: float


def treemap_layout(data_map: DataMap) -> dict[str, Rect]:
    """Rectangle per region id, slice-and-dice, area ∝ tuple count.

    Regions with zero tuples receive zero-area rectangles (they remain
    addressable but invisible).  The root rectangle is the unit square
    ``Rect(0, 0, 1, 1)``, so a region's area is its share of the map.
    """
    out: dict[str, Rect] = {}
    _layout(data_map.root, Rect(0.0, 0.0, 1.0, 1.0), out, horizontal=True)
    return out


def _layout(
    region: Region,
    rect: Rect,
    out: dict[str, Rect],
    horizontal: bool,
) -> None:
    out[region.region_id] = rect
    if region.is_leaf:
        return
    total = sum(child.n_rows for child in region.children)
    offset = 0.0
    for child in region.children:
        share = child.n_rows / total if total > 0 else 0.0
        if horizontal:
            child_rect = Rect(
                x=rect.x + offset * rect.width,
                y=rect.y,
                width=share * rect.width,
                height=rect.height,
            )
            offset += share
        else:
            child_rect = Rect(
                x=rect.x,
                y=rect.y + offset * rect.height,
                width=rect.width,
                height=share * rect.height,
            )
            offset += share
        _layout(child, child_rect, out, horizontal=not horizontal)
