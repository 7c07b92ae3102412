"""JSON export — the payloads the web tier ships to the D3 client.

In the paper's architecture the R engine hands maps to NodeJS, which
relays them to the browser as JSON.  These exporters produce those
payloads: a D3-hierarchy-shaped map document (with treemap geometry
attached, so the client needs no layout code) and a theme-list document
for the theme view.

Each document is encoded once: maps and theme sets are never patched in
place (a refinement returns a new map), so the first export's text is
kept on the object and every later export — every later response that
carries it — returns that text.  The kept text is no dataclass field: it
takes no part in ``==``, ``repr`` or the artifact codec.
"""

from __future__ import annotations

import json
from typing import Callable

from repro.core.datamap import DataMap
from repro.core.themes import ThemeSet
from repro.viz.treemap import treemap_layout

__all__ = ["export_map_json", "export_themes_json"]

#: The instance attribute holding an object's export text.
_KEPT = "_export_json"


def _kept(obj: DataMap | ThemeSet, encode: Callable[..., str]) -> str:
    """``encode(obj)``, computed on the first call and kept on ``obj``.

    Written through ``__dict__``, past the frozen dataclass's
    ``__setattr__`` (maps and theme sets are both frozen); two threads
    racing on a first export both store the same text.
    """
    text = obj.__dict__.get(_KEPT)
    if text is None:
        text = obj.__dict__[_KEPT] = encode(obj)
    return text


def export_map_json(data_map: DataMap) -> str:
    """The map as a one-line JSON document: hierarchy + treemap
    rectangles, encoded on the first call and kept with the map.

    The shape follows D3's hierarchy conventions (``name``, ``value``,
    ``children``) so a ``d3.hierarchy`` call could consume it directly.
    """
    return _kept(data_map, _encode_map)


def export_themes_json(themes: ThemeSet) -> str:
    """The theme list as a one-line JSON document for the theme view,
    encoded on the first call and kept with the theme set."""
    return _kept(themes, _encode_themes)


def _encode_map(data_map: DataMap) -> str:
    rectangles = treemap_layout(data_map)

    def node(region_dict: dict[str, object]) -> dict[str, object]:
        region_id = str(region_dict["id"])
        rect = rectangles[region_id]
        out: dict[str, object] = {
            "name": region_dict["label"],
            "id": region_id,
            "value": region_dict["n_rows"],
            "sql": region_dict["sql"],
            "rect": {
                "x": round(rect.x, 6),
                "y": round(rect.y, 6),
                "w": round(rect.width, 6),
                "h": round(rect.height, 6),
            },
        }
        for key in ("cluster", "silhouette", "exemplar", "n_rows_error"):
            if key in region_dict:
                out[key] = region_dict[key]
        if "children" in region_dict:
            out["children"] = [
                node(child)  # type: ignore[arg-type]
                for child in region_dict["children"]  # type: ignore[union-attr]
            ]
        return out

    payload = {
        "type": "blaeu.map",
        "columns": list(data_map.columns),
        "k": data_map.k,
        "n_rows": data_map.n_rows,
        "silhouette": round(data_map.silhouette, 4),
        "fidelity": round(data_map.fidelity, 4),
        "counts_status": data_map.counts_status,
        "root": node(data_map.root.to_dict()),
    }
    return json.dumps(payload, sort_keys=True)


def _encode_themes(themes: ThemeSet) -> str:
    payload = {
        "type": "blaeu.themes",
        "silhouette": round(themes.silhouette, 4),
        "k_scores": {str(k): round(v, 4) for k, v in themes.k_scores.items()},
        "excluded_keys": list(themes.excluded_keys),
        "themes": [
            {
                "name": theme.name,
                "columns": list(theme.columns),
                "cohesion": round(theme.cohesion, 4),
            }
            for theme in themes
        ],
    }
    return json.dumps(payload, sort_keys=True)
