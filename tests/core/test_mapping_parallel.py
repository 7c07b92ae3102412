"""End-to-end determinism of build_map under the new performance knobs."""

import pytest

from repro.core.config import BlaeuConfig
from repro.core.pipeline import build_map
from synthetic import numeric_blobs


@pytest.fixture(scope="module")
def big_blobs():
    # Enough rows that the sample crosses the (lowered) CLARA threshold.
    return numeric_blobs(n_rows=2_000, k=3, n_features=3, spread=0.4, seed=23)


def _build(table, **overrides):
    config = BlaeuConfig(
        map_sample_size=1_500,
        clara_threshold=300,
        map_k_values=(2, 3),
        seed=11,
        **overrides,
    )
    return build_map(table, table.column_names, config=config)


def _map_signature(data_map):
    return (
        data_map.k,
        data_map.silhouette,
        data_map.fidelity,
        [(r.region_id, r.n_rows, r.predicate.to_sql()) for r in data_map.leaves()],
    )


class TestParallelMapBuilds:
    def test_float32_map_is_structurally_sound(self, big_blobs):
        data_map = _build(big_blobs.table, distance_dtype="float32")
        assert data_map.k in (2, 3)
        assert -1.0 <= data_map.silhouette <= 1.0
        assert sum(leaf.n_rows for leaf in data_map.leaves()) == (
            big_blobs.table.n_rows
        )

    def test_config_digest_tracks_new_knobs(self):
        base = BlaeuConfig()
        # A width is not a result knob: maps are bit-identical at any.
        assert base.digest() == BlaeuConfig(graph_jobs=4).digest()
        assert base.digest() != BlaeuConfig(distance_dtype="float32").digest()
        assert base.digest() != BlaeuConfig(silhouette_exact_threshold=10).digest()

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            BlaeuConfig(distance_dtype="float16")
        with pytest.raises(ValueError):
            BlaeuConfig(graph_jobs=-2)
        with pytest.raises(ValueError):
            BlaeuConfig(silhouette_exact_threshold=-1)
