"""The pickle-free artifact codec: round-trips, checksums, refusal."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import BlaeuConfig
from repro.core.engine import Blaeu
from repro.core.pipeline import MapBuilder, MapPipeline
from repro.obs.metrics import reset_metrics
from repro.store.codec import (
    MAGIC,
    ArtifactCorruptError,
    CodecError,
    decode,
    encodable,
    encode,
)
from repro.table.predicates import And, Between, Comparison, In, Not
from synthetic import mixed_blobs


@pytest.fixture(scope="module")
def table():
    return mixed_blobs(n_rows=240, k=2, seed=17).table


@pytest.fixture(scope="module")
def built(table):
    """A real map plus the stage artifacts behind it."""
    from repro.service.cache import LRUCache

    engine = Blaeu(BlaeuConfig(map_k_values=(2, 3), seed=11))
    engine.set_map_cache(LRUCache(max_size=128))
    engine.register(table)
    columns = tuple(
        c for c in table.column_names if c not in ("label",)
    )[:4]
    data_map = engine.map(table.name, columns)
    return engine, data_map


class TestScalarsAndArrays:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            42,
            -1.5,
            "text",
            [1, "two", None],
            ("tu", "ple"),
            {"k": [1, 2]},
            {3: "int keys survive"},
            float("nan"),
            float("inf"),
        ],
    )
    def test_round_trips_plain_values(self, value):
        again = decode(encode(value))
        if isinstance(value, float) and value != value:
            assert again != again  # NaN
        else:
            assert again == value
        assert type(again) is type(value)

    def test_round_trips_arrays_bit_exactly(self):
        for array in (
            np.arange(12, dtype=np.int64).reshape(3, 4),
            np.array([1.5, np.nan, -np.inf]),
            np.array([True, False, True]),
            np.zeros((0, 3)),
        ):
            again = decode(encode({"a": array}))["a"]
            assert again.dtype == array.dtype
            assert again.shape == array.shape
            np.testing.assert_array_equal(again, array)

    def test_decoded_arrays_are_read_only_views(self):
        again = decode(encode(np.arange(8)))
        assert not again.flags.writeable

    def test_rejects_unregistered_types(self):
        class Stranger:
            pass

        assert not encodable(Stranger())
        with pytest.raises(CodecError):
            encode(Stranger())

    def test_rejects_object_dtype_arrays(self):
        with pytest.raises(CodecError):
            encode(np.array([object()]))


class TestDomainTypes:
    def test_round_trips_predicates(self):
        predicate = And(
            [
                Comparison("x", ">", 1.0),
                Not(In("group", ("red", "blue"))),
                Between("y", 0.0, 2.0),
            ]
        )
        again = decode(encode(predicate))
        assert again.to_sql() == predicate.to_sql()

    def test_round_trips_a_table(self, table):
        again = decode(encode(table))
        assert again.fingerprint() == table.fingerprint()

    def test_round_trips_a_data_map(self, built):
        _, data_map = built
        again = decode(encode(data_map))
        assert again.to_dict() == data_map.to_dict()

    def test_round_trips_a_theme_set(self, built, table):
        engine, _ = built
        themes = engine.themes(table.name)
        again = decode(encode(themes))
        assert again.themes == themes.themes
        assert again.excluded_keys == themes.excluded_keys
        assert again.silhouette == themes.silhouette
        assert again.k_scores == themes.k_scores
        assert again.graph.columns == themes.graph.columns
        assert again.graph.measure == themes.graph.measure
        np.testing.assert_array_equal(again.graph.weights, themes.graph.weights)

    def test_round_trips_stage_artifacts(self, built, table):
        engine, _ = built
        cache = engine.map_cache
        # The engine's cache holds every stage artifact of the build.
        stage_keys = [
            key
            for key in getattr(cache, "_entries", {})
            if isinstance(key, tuple) and key and key[0] == "stage"
        ]
        assert stage_keys, "expected stage artifacts in the cache"
        for key in stage_keys:
            artifact = cache.get(key)
            blob = encode(artifact)
            again = decode(blob)
            assert type(again) is type(artifact)


class TestContainerIntegrity:
    def test_blob_leads_with_magic(self):
        assert encode(1).startswith(MAGIC)

    def test_flipped_payload_byte_fails_checksum(self):
        blob = bytearray(encode({"x": np.arange(64.0)}))
        blob[-3] ^= 0xFF
        with pytest.raises(ArtifactCorruptError):
            decode(bytes(blob))

    def test_truncation_is_detected(self):
        blob = encode({"x": np.arange(64.0)})
        with pytest.raises(ArtifactCorruptError):
            decode(blob[: len(blob) // 2])

    def test_wrong_magic_is_rejected(self):
        blob = encode(5)
        with pytest.raises(ArtifactCorruptError):
            decode(b"NOTMAGIC" + blob[len(MAGIC) :])


class TestPipelineEquivalence:
    def test_map_identical_through_an_encode_decode_cache(self, table):
        """A cache that round-trips every value through the codec yields
        bit-identical maps — serialization is invisible to the pipeline."""

        class RoundTrippingCache:
            def __init__(self):
                self._entries = {}

            def get(self, key):
                blob = self._entries.get(key)
                return None if blob is None else decode(blob)

            def put(self, key, value):
                try:
                    self._entries[key] = encode(value)
                except CodecError:
                    pass

        config = BlaeuConfig(map_k_values=(2, 3), seed=23)
        plain = MapBuilder(result_cache=None)
        coded = MapBuilder(result_cache=RoundTrippingCache())
        columns = tuple(table.column_names[:4])
        reference = plain.build(table, columns, config=config)
        # Build twice: the second run re-reads every artifact through
        # decode(), so any codec lossiness would show up as a diff.
        metrics = reset_metrics()
        coded.build(table, columns, config=config)
        again = coded.build(table, columns, config=config)
        assert again.to_dict() == reference.to_dict()
        assert metrics.counter("blaeu_pipeline_map_hits_total") == 1


def test_map_pipeline_symbol_still_exported():
    # Regression guard: the codec work must not disturb pipeline exports.
    assert MapPipeline is not None
