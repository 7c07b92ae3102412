"""Cross-module property tests: engine-level invariants under random data."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import BlaeuConfig
from repro.core.pipeline import build_map
from repro.core.navigation import Explorer
from repro.core.queries import quantized_queries
from repro.viz.treemap import treemap_layout
from synthetic import mixed_blobs

_settings = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

_scenarios = st.fixed_dictionaries(
    {
        "n_rows": st.integers(min_value=80, max_value=400),
        "k": st.integers(min_value=2, max_value=4),
        "missing_rate": st.sampled_from([0.0, 0.05, 0.15]),
        "seed": st.integers(min_value=0, max_value=10_000),
    }
)


@_settings
@given(scenario=_scenarios)
def test_map_counts_partition_selection(scenario):
    """Leaf counts always partition the selection, whatever the data."""
    planted = mixed_blobs(**scenario)
    data_map = build_map(
        planted.table,
        planted.table.column_names,
        config=BlaeuConfig(map_k_values=(2, 3)),
    )
    assert sum(leaf.n_rows for leaf in data_map.leaves()) == planted.table.n_rows
    for region in data_map.regions():
        if not region.is_leaf:
            assert region.n_rows == sum(c.n_rows for c in region.children)


@_settings
@given(scenario=_scenarios)
def test_quantized_queries_consistent_with_counts(scenario):
    """Every region's SQL predicate selects exactly its counted tuples.

    This holds on tables with missing values too: the predicates encode
    the tree's missing-value routing explicitly (``… OR x IS NULL``).
    """
    planted = mixed_blobs(**scenario)
    data_map = build_map(
        planted.table,
        planted.table.column_names,
        config=BlaeuConfig(map_k_values=(2, 3)),
    )
    for query in quantized_queries(planted.table, data_map):
        assert planted.table.select(query.predicate).n_rows == query.n_rows


@_settings
@given(scenario=_scenarios)
def test_treemap_mass_conservation(scenario):
    """Treemap leaf areas always sum to the (unit) canvas area."""
    planted = mixed_blobs(**scenario)
    data_map = build_map(
        planted.table,
        planted.table.column_names,
        config=BlaeuConfig(map_k_values=(2, 3)),
    )
    rectangles = treemap_layout(data_map)
    leaf_area = sum(
        rectangles[leaf.region_id].width * rectangles[leaf.region_id].height
        for leaf in data_map.leaves()
    )
    assert leaf_area == pytest.approx(1.0, rel=1e-9)


@_settings
@given(scenario=_scenarios)
def test_rollback_always_restores_identical_state(scenario):
    """zoom → rollback is the identity on explorer state."""
    planted = mixed_blobs(**scenario)
    explorer = Explorer(
        planted.table,
        config=BlaeuConfig(map_k_values=(2, 3), min_zoom_rows=5),
    )
    before = explorer.open_columns(("x0", "x1"))
    zoomable = [
        leaf for leaf in before.leaves() if leaf.n_rows >= 5
    ]
    if not zoomable:
        return
    explorer.zoom(zoomable[0].region_id)
    restored = explorer.rollback()
    assert restored is before
    assert explorer.depth == 1
