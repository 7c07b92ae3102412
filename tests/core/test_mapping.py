"""Unit tests for the map-building pipeline (paper §3, Figure 3)."""

import numpy as np
import pytest

from oracles import adjusted_rand_index
from repro.core.config import BlaeuConfig
from repro.core.pipeline import build_map
from repro.table.predicates import Everything
from synthetic import mixed_blobs, numeric_blobs


@pytest.fixture(scope="module")
def blobs():
    return numeric_blobs(n_rows=500, k=3, n_features=3, spread=0.4, seed=17)


class TestBuildMap:
    def test_recovers_planted_clusters(self, blobs):
        data_map = build_map(
            blobs.table,
            blobs.table.column_names,
        )
        assert data_map.k == 3
        # Leaf regions, interpreted as a labeling of the table, should
        # match the planted clusters.
        predicted = np.full(blobs.table.n_rows, -1)
        for position, leaf in enumerate(data_map.leaves()):
            mask = leaf.predicate.mask(blobs.table)
            predicted[mask] = position
        assert adjusted_rand_index(predicted, blobs.labels) > 0.9

    def test_root_covers_selection(self, blobs):
        data_map = build_map(
            blobs.table, blobs.table.column_names,
        )
        assert data_map.n_rows == blobs.table.n_rows
        assert isinstance(data_map.root.predicate, Everything)
        assert data_map.root.label == "all rows"

    def test_children_counts_sum_to_parent(self, blobs):
        data_map = build_map(
            blobs.table, blobs.table.column_names,
        )
        for region in data_map.regions():
            if not region.is_leaf:
                assert region.n_rows == sum(
                    child.n_rows for child in region.children
                )

    def test_region_ids_encode_paths(self, blobs):
        data_map = build_map(
            blobs.table, blobs.table.column_names,
        )
        for region in data_map.regions():
            assert region.region_id.startswith("r")
            for i, child in enumerate(region.children):
                assert child.region_id == region.region_id + str(i)

    def test_leaves_have_clusters_and_exemplars(self, blobs):
        data_map = build_map(
            blobs.table, blobs.table.column_names,
        )
        clusters = {leaf.cluster for leaf in data_map.leaves()}
        assert clusters == set(range(data_map.k))
        for leaf in data_map.leaves():
            assert set(leaf.exemplar) == set(blobs.table.column_names)

    def test_forced_k(self, blobs):
        data_map = build_map(
            blobs.table, blobs.table.column_names, k=2,
        )
        assert data_map.k == 2

    def test_forced_k_out_of_range(self, blobs):
        with pytest.raises(ValueError):
            build_map(
                blobs.table, blobs.table.column_names, k=0,
            )

    def test_sampling_bounds_work(self, blobs):
        config = BlaeuConfig(map_sample_size=150)
        data_map = build_map(
            blobs.table, blobs.table.column_names,
            config=config,
        )
        assert data_map.sample_size == 150
        # Counts stay exact over the full selection despite sampling.
        assert data_map.n_rows == blobs.table.n_rows

    def test_mixed_data_with_missing(self):
        planted = mixed_blobs(
            n_rows=400, k=2, missing_rate=0.05, seed=23
        )
        data_map = build_map(
            planted.table,
            planted.table.column_names,
        )
        assert data_map.k >= 2
        assert 0.0 <= data_map.fidelity <= 1.0
        # Every row is counted somewhere (missing cells route through the
        # tree's majority branches, never dropped).
        assert (
            sum(leaf.n_rows for leaf in data_map.leaves()) == planted.table.n_rows
        )

    def test_fidelity_high_on_separable_data(self, blobs):
        data_map = build_map(
            blobs.table, blobs.table.column_names,
        )
        assert data_map.fidelity > 0.9

    def test_silhouette_in_range(self, blobs):
        data_map = build_map(
            blobs.table, blobs.table.column_names,
        )
        assert -1.0 <= data_map.silhouette <= 1.0

    def test_empty_columns_rejected(self, blobs):
        with pytest.raises(ValueError):
            build_map(blobs.table, ())

    def test_tiny_selection_rejected(self, blobs):
        tiny = blobs.table.head(1)
        with pytest.raises(ValueError):
            build_map(tiny, blobs.table.column_names)

    def test_to_dict_payload(self, blobs):
        data_map = build_map(
            blobs.table, blobs.table.column_names,
        )
        payload = data_map.to_dict()
        assert payload["k"] == data_map.k
        assert payload["root"]["n_rows"] == data_map.n_rows
        assert "children" in payload["root"]
