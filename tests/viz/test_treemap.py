"""Unit and property tests for the treemap layout."""

import pytest

from repro.core.datamap import DataMap, Region
from repro.core.pipeline import build_map
from repro.table.predicates import Everything
from repro.viz.treemap import treemap_layout
from synthetic import numeric_blobs


def _area(rect):
    return rect.width * rect.height


@pytest.fixture(scope="module")
def data_map() -> DataMap:
    planted = numeric_blobs(n_rows=400, k=3, n_features=2, spread=0.4, seed=77)
    return build_map(
        planted.table,
        planted.table.column_names,
    )


class TestLayout:
    def test_root_covers_canvas(self, data_map):
        rectangles = treemap_layout(data_map)
        root = rectangles["r"]
        assert (root.x, root.y, root.width, root.height) == (0, 0, 1.0, 1.0)

    def test_every_region_has_a_rectangle(self, data_map):
        rectangles = treemap_layout(data_map)
        assert set(rectangles) == {
            region.region_id for region in data_map.regions()
        }

    def test_areas_proportional_to_counts(self, data_map):
        rectangles = treemap_layout(data_map)
        total = data_map.n_rows
        for region in data_map.regions():
            expected = region.n_rows / total
            assert _area(rectangles[region.region_id]) == pytest.approx(
                expected, abs=1e-9
            )

    def test_children_tile_their_parent(self, data_map):
        rectangles = treemap_layout(data_map)
        for region in data_map.regions():
            if region.is_leaf:
                continue
            parent = rectangles[region.region_id]
            child_area = sum(
                _area(rectangles[c.region_id]) for c in region.children
            )
            assert child_area == pytest.approx(_area(parent), abs=1e-9)
            for child in region.children:
                rect = rectangles[child.region_id]
                assert rect.x >= parent.x - 1e-9
                assert rect.y >= parent.y - 1e-9
                assert rect.x + rect.width <= parent.x + parent.width + 1e-9
                assert rect.y + rect.height <= parent.y + parent.height + 1e-9

    def test_leaves_do_not_overlap(self, data_map):
        rectangles = treemap_layout(data_map)
        leaves = [rectangles[r.region_id] for r in data_map.leaves()]
        for i, a in enumerate(leaves):
            for b in leaves[i + 1 :]:
                overlap_w = max(
                    0.0, min(a.x + a.width, b.x + b.width) - max(a.x, b.x)
                )
                overlap_h = max(
                    0.0, min(a.y + a.height, b.y + b.height) - max(a.y, b.y)
                )
                assert overlap_w * overlap_h == pytest.approx(0.0, abs=1e-9)


class TestRect:
    def test_zero_count_region_zero_area(self):
        # A map with an empty child must not crash the layout.
        child_a = Region("r0", "a", Everything(), n_rows=10, depth=1, cluster=0)
        child_b = Region("r1", "b", Everything(), n_rows=0, depth=1, cluster=1)
        root = Region(
            "r", "all", Everything(), n_rows=10, depth=0,
            children=[child_a, child_b],
        )
        data_map = DataMap(
            root=root, columns=("x",), k=2,
            silhouette=0.0, fidelity=1.0, sample_size=10,
        )
        rectangles = treemap_layout(data_map)
        assert _area(rectangles["r1"]) == 0.0
        assert _area(rectangles["r0"]) == pytest.approx(1.0)
