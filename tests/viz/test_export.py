"""Unit tests for JSON export (the D3 payloads)."""

import json

import pytest

from repro.core.config import BlaeuConfig
from repro.core.pipeline import build_map
from repro.core.themes import extract_themes
from repro.viz.export import export_map_json, export_themes_json
from synthetic import numeric_blobs, planted_themes


@pytest.fixture(scope="module")
def data_map():
    planted = numeric_blobs(n_rows=300, k=2, n_features=2, spread=0.4, seed=3)
    return build_map(
        planted.table, planted.table.column_names,
    )


class TestMapExport:
    def test_valid_json_with_expected_envelope(self, data_map):
        payload = json.loads(export_map_json(data_map))
        assert payload["type"] == "blaeu.map"
        assert payload["k"] == data_map.k
        assert payload["n_rows"] == data_map.n_rows

    def test_d3_hierarchy_shape(self, data_map):
        payload = json.loads(export_map_json(data_map))
        root = payload["root"]
        assert {"name", "id", "value", "sql", "rect"} <= set(root)
        stack = [root]
        seen = 0
        while stack:
            node = stack.pop()
            seen += 1
            rect = node["rect"]
            assert set(rect) == {"x", "y", "w", "h"}
            stack.extend(node.get("children", []))
        assert seen == len(data_map.regions())

    def test_rect_geometry_attached(self, data_map):
        payload = json.loads(export_map_json(data_map))
        root_rect = payload["root"]["rect"]
        assert root_rect == {"x": 0.0, "y": 0.0, "w": 1.0, "h": 1.0}

    def test_leaf_values_sum_to_total(self, data_map):
        payload = json.loads(export_map_json(data_map))

        def leaf_values(node):
            children = node.get("children")
            if not children:
                return [node["value"]]
            return [v for c in children for v in leaf_values(c)]

        assert sum(leaf_values(payload["root"])) == data_map.n_rows


class TestThemesExport:
    def test_valid_json(self):
        planted = planted_themes(
            n_rows=250, group_sizes={"a": 3, "b": 3}, seed=4
        )
        themes = extract_themes(
            planted.table,
            config=BlaeuConfig(theme_k_values=(2, 3)),
        )
        payload = json.loads(export_themes_json(themes))
        assert payload["type"] == "blaeu.themes"
        assert len(payload["themes"]) == len(themes)
        for entry in payload["themes"]:
            assert {"name", "columns", "cohesion"} <= set(entry)
