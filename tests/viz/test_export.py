"""Unit tests for JSON export (the D3 payloads)."""

import dataclasses
import json
import sys
import threading

import pytest

from repro.core.config import BlaeuConfig
from repro.core.pipeline import build_map
from repro.core.themes import extract_themes
from repro.store import codec
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


class TestEncodedOnce:
    """The export text is kept with the (never patched) map or theme
    set: a second export returns it, and it is no part of what the map
    is."""

    def test_a_second_export_returns_the_kept_text(self, data_map):
        first = export_map_json(data_map)
        assert export_map_json(data_map) is first

    def test_the_kept_text_is_no_part_of_the_map(self, data_map):
        export_map_json(data_map)
        copy = dataclasses.replace(data_map)
        assert "_export_json" not in copy.__dict__
        assert copy == data_map
        assert repr(copy) == repr(data_map)
        assert codec.encode(copy) == codec.encode(data_map)
        decoded = codec.decode(codec.encode(data_map))
        assert export_map_json(decoded) == export_map_json(data_map)

    def test_concurrent_first_exports_agree(self, data_map):
        """Threads racing on a fresh map's first export each get the
        text a lone export makes, and one such text is kept."""
        expected = export_map_json(data_map)
        fresh = dataclasses.replace(data_map)
        texts = []
        barrier = threading.Barrier(8)

        def export():
            barrier.wait(timeout=10)
            texts.append(export_map_json(fresh))

        threads = [threading.Thread(target=export) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert texts == [expected] * 8
        assert export_map_json(fresh) == expected


class TestThemesExport:
    def test_valid_json(self):
        planted = planted_themes(
            n_rows=250, group_sizes={"a": 3, "b": 3}, seed=4
        )
        themes = extract_themes(
            planted.table,
            config=BlaeuConfig(theme_k_values=(2, 3)),
        )
        text = export_themes_json(themes)
        assert export_themes_json(themes) is text
        payload = json.loads(text)
        assert payload["type"] == "blaeu.themes"
        assert len(payload["themes"]) == len(themes)
        for entry in payload["themes"]:
            assert {"name", "columns", "cohesion"} <= set(entry)
