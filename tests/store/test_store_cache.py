"""Satellite: the service cache keys store-backed builds on the manifest
fingerprint — O(1), never a full-column re-hash on the hot path."""

import pytest

from repro.core.config import BlaeuConfig
from repro.core.engine import Blaeu
from repro.core.pipeline import MapBuilder, map_cache_key
from repro.obs.metrics import reset_metrics
from repro.service.cache import LRUCache, TieredCache
from repro.store import StoredTable, write_store
from repro.table.column import CategoricalColumn, NumericColumn
from repro.table.table import Table
from repro.viz.export import export_map_json
from scrape import scraped


@pytest.fixture
def table(rng) -> Table:
    n = 300
    labels = rng.integers(0, 3, n)
    return Table(
        "blobs",
        [
            NumericColumn("x", labels * 6.0 + rng.normal(0, 0.5, n)),
            NumericColumn("y", labels * -6.0 + rng.normal(0, 0.5, n)),
            CategoricalColumn.from_labels(
                "tag", [["r", "g", "b"][v] for v in labels]
            ),
        ],
    )


@pytest.fixture
def stored(table, tmp_path) -> StoredTable:
    write_store(table, tmp_path / "s", chunk_rows=64)
    return StoredTable(tmp_path / "s")


class TestManifestFingerprintKeys:
    def test_cache_key_does_no_data_io(self, stored):
        config = BlaeuConfig()
        key = map_cache_key(stored, "TRUE", ("x", "y"), config)
        assert stored.data_reads == 0, (
            "computing a cache key scanned column data — the O(1) "
            "manifest fingerprint was bypassed"
        )
        assert key[0] == stored.manifest.fingerprint

    def test_key_identical_to_in_memory_twin(self, stored, table):
        config = BlaeuConfig()
        assert map_cache_key(stored, "TRUE", ("x",), config) == map_cache_key(
            table, "TRUE", ("x",), config
        )

    def test_repeated_lookups_stay_io_free(self, stored):
        config = BlaeuConfig()
        for _ in range(5):
            map_cache_key(stored, "TRUE", ("x", "y"), config)
        assert stored.data_reads == 0


class TestSharedMapCache:
    def test_store_build_hits_cache_warmed_by_memory_build(
        self, stored, table
    ):
        metrics = reset_metrics()
        cache = TieredCache(LRUCache(max_size=8))
        config = BlaeuConfig()
        first = MapBuilder(result_cache=cache).build(
            table, ("x", "y"), config=config
        )
        reads_before = stored.data_reads
        second = MapBuilder(result_cache=cache).build(
            stored, ("x", "y"), config=config
        )
        # One warm lookup answers the store build (the six cold misses
        # are the memory build's map + five pipeline stage artifacts).
        assert scraped(metrics, "blaeu_cache_hits_total", tier="l1") == 1
        assert scraped(metrics, "blaeu_cache_misses_total", tier="l1") == 6
        assert second is first  # the cached DataMap object, verbatim
        assert stored.data_reads == reads_before, (
            "a cache hit should not touch store data at all"
        )

    def test_cold_store_build_equals_memory_build(self, stored, table):
        config = BlaeuConfig()
        cache_a = LRUCache(max_size=8)
        cache_b = LRUCache(max_size=8)
        mem_map = MapBuilder(result_cache=cache_a).build(
            table, ("x", "y"), config=config
        )
        sto_map = MapBuilder(result_cache=cache_b).build(
            stored, ("x", "y"), config=config
        )
        assert export_map_json(mem_map) == export_map_json(sto_map)


class TestServiceCatalogResidency:
    def test_catalog_command_exposes_residency(self, stored, table):
        from repro.server.protocol import parse_request
        from repro.server.session import SessionManager

        engine = Blaeu(BlaeuConfig())
        engine.register(table)
        engine.register(stored.project(stored.column_names, name="blobs_store"))
        manager = SessionManager(engine)
        import json

        response = manager.handle(
            parse_request(json.dumps({"command": "catalog"}))
        )
        records = {r["name"]: r for r in response.payload["catalog"]}
        assert records["blobs"]["residency"] == "memory"
        assert records["blobs_store"]["residency"] == "store"
        assert (
            records["blobs"]["fingerprint"]
            == records["blobs_store"]["fingerprint"]
        )

    def test_session_open_on_store_backed_table(self, stored):
        from repro.server.protocol import parse_request
        from repro.server.session import SessionManager

        engine = Blaeu(BlaeuConfig())
        engine.set_map_cache(LRUCache(max_size=8))
        engine.register(stored)
        manager = SessionManager(engine)
        import json

        def send(**payload):
            return manager.handle(parse_request(json.dumps(payload)))

        opened = send(command="open", session="s1", table="blobs", theme=0)
        assert "map" in opened.payload
        # A second session replaying the same action path is a pure
        # cache hit: no store IO beyond what the first build did.
        reads_after_first = stored.data_reads
        reopened = send(command="open", session="s2", table="blobs", theme=0)
        assert json.loads(reopened.payload["map"]) == json.loads(
            opened.payload["map"]
        )
        assert stored.data_reads == reads_after_first

    def test_zoom_and_highlight_on_store_backed_session(self, stored):
        from repro.server.protocol import parse_request
        from repro.server.session import SessionManager

        engine = Blaeu(BlaeuConfig())
        engine.register(stored)
        manager = SessionManager(engine)
        import json

        def send(**payload):
            return manager.handle(parse_request(json.dumps(payload)))

        opened = send(command="open", session="s1", table="blobs", theme=0)
        # Zoom into the root's largest child region.
        children = json.loads(opened.payload["map"])["root"]["children"]
        region_id = max(children, key=lambda c: c["value"])["id"]
        zoomed = send(command="zoom", session="s1", region=region_id)
        assert "map" in getattr(zoomed, "payload", {}), getattr(
            zoomed, "error", zoomed
        )
        highlighted = send(
            command="highlight", session="s1", region=region_id
        )
        assert highlighted.payload["highlight"]["n_rows"] > 0
