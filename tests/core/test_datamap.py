"""Unit tests for the Region / DataMap model."""

import pytest

from repro.core.datamap import DataMap, Region
from repro.table.predicates import Comparison, Everything


def _toy_map() -> DataMap:
    left = Region(
        region_id="r0",
        label="x < 5",
        predicate=Comparison("x", "<", 5),
        n_rows=70,
        depth=1,
        cluster=0,
        silhouette=0.8,
        exemplar={"x": 2.0},
    )
    right = Region(
        region_id="r1",
        label="x >= 5",
        predicate=Comparison("x", ">=", 5),
        n_rows=30,
        depth=1,
        cluster=1,
        silhouette=0.6,
    )
    root = Region(
        region_id="r",
        label="all rows",
        predicate=Everything(),
        n_rows=100,
        depth=0,
        children=[left, right],
    )
    return DataMap(
        root=root,
        columns=("x",),
        k=2,
        silhouette=0.7,
        fidelity=0.95,
        sample_size=100,
    )


class TestRegion:
    def test_walk_preorder(self):
        data_map = _toy_map()
        ids = [r.region_id for r in data_map.root.walk()]
        assert ids == ["r", "r0", "r1"]

    def test_is_leaf(self):
        data_map = _toy_map()
        assert not data_map.root.is_leaf
        assert data_map.region("r0").is_leaf

    def test_fraction(self):
        data_map = _toy_map()
        assert data_map.region("r0").fraction_of(100) == pytest.approx(0.7)
        assert data_map.region("r0").fraction_of(0) == 0.0

    def test_to_dict_includes_optional_fields(self):
        payload = _toy_map().region("r0").to_dict()
        assert payload["cluster"] == 0
        assert payload["silhouette"] == 0.8
        assert payload["exemplar"] == {"x": 2.0}
        root_payload = _toy_map().root.to_dict()
        assert "cluster" not in root_payload
        assert len(root_payload["children"]) == 2


class TestDataMap:
    def test_leaves_and_regions(self):
        data_map = _toy_map()
        assert [r.region_id for r in data_map.leaves()] == ["r0", "r1"]
        assert len(data_map.regions()) == 3

    def test_region_lookup(self):
        data_map = _toy_map()
        assert data_map.region("r1").n_rows == 30
        with pytest.raises(KeyError, match="available"):
            data_map.region("r9")

    def test_n_rows_delegates_to_root(self):
        assert _toy_map().n_rows == 100

    def test_to_dict_roundtrip_shape(self):
        payload = _toy_map().to_dict()
        assert payload["columns"] == ["x"]
        assert payload["k"] == 2
        assert payload["root"]["id"] == "r"
