"""A served process holds what it computes, not what it has read.

Three contracts of the store-backed read paths: no store file stays
mapped once the call that mapped it returns (a kept map keeps every
page it ever faulted resident); a highlight holds each matched present
cell of its numeric columns once — never the selection's masks, a
second concatenated copy, or a copy for the median; and a cached
sample keeps its selection as a packed bitmap of ⌈n/8⌉ bytes, which
counts exactly what the boolean mask counted, and which no sample
artifact of the byte-per-row format can stand in for.
"""

import asyncio
import http.client
import json
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import BlaeuConfig
from repro.core.datamap import DataMap, Region
from repro.core.engine import Blaeu
from repro.core.navigation import ExplorationState, Explorer
from repro.core.pipeline import (
    MapPipeline,
    SampleArtifact,
    _node_counts,
    _selection_rows,
    packed_count,
)
from repro.service.app import BlaeuService
from repro.service.cache import LRUCache, TieredCache
from repro.service.config import PoolConfig, ServiceConfig
from repro.store import StoredTable, write_store
from repro.store.artifacts import ArtifactCache
from repro.store.codec import ArtifactCorruptError, decode, encode
from repro.table.column import CategoricalColumn, NumericColumn
from repro.table.predicates import Between, Comparison, Everything, Or
from repro.table.table import Table
from repro.tree.cart import count_reaching, fit_tree


def _grouped_table(n: int, seed: int) -> Table:
    """Two groups of dependent numeric columns plus a label: two themes."""
    rng = np.random.default_rng(seed)
    first = rng.integers(0, 3, n)
    second = rng.integers(0, 3, n)
    noise = lambda: rng.normal(0.0, 0.5, n)  # noqa: E731
    b = first * -4.0 + noise()
    b[rng.random(n) < 0.02] = np.nan
    return Table(
        "grouped",
        [
            NumericColumn("a", first * 5.0 + noise()),
            NumericColumn("b", b),
            NumericColumn("c", first * 3.0 + noise()),
            NumericColumn("p", second * 6.0 + noise()),
            NumericColumn("q", second * -2.0 + noise()),
            CategoricalColumn.from_labels(
                "tag", [("r", "g", "b")[v] for v in second]
            ),
        ],
    )


def _mapped_store_files(root: Path) -> list[str]:
    """The files of the store at ``root`` — column files, priority
    file, anything under it — this process has memory-mapped now."""
    prefix = str(root.resolve()) + "/"
    lines = Path("/proc/self/maps").read_text().splitlines()
    return sorted({line.split()[-1] for line in lines if prefix in line})


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc/self/maps"
)
def test_navigation_leaves_no_column_file_mapped(tmp_path):
    root = tmp_path / "store"
    write_store(_grouped_table(20_000, seed=3), root, chunk_rows=4096)
    engine = Blaeu(BlaeuConfig(map_sample_size=500, dependency_sample_size=500))
    engine.register(StoredTable(root))

    themes = engine.themes("grouped")
    assert _mapped_store_files(root) == []
    explorer = engine.explore("grouped")
    opened = explorer.open_theme(0)
    assert _mapped_store_files(root) == []
    zoomed = explorer.zoom(opened.root.children[0].region_id)
    explorer.project(len(themes.themes) - 1)
    explorer.highlight(explorer.state.map.leaves()[0].region_id)
    assert zoomed.n_rows > 0
    assert _mapped_store_files(root) == []


def test_column_maps_live_as_long_as_the_caller_holds_them(tmp_path):
    if not sys.platform.startswith("linux"):
        pytest.skip("reads /proc/self/maps")
    root = tmp_path / "store"
    write_store(_grouped_table(2_000, seed=4), root)
    stored = StoredTable(root)
    column = stored.column("a")
    assert len(_mapped_store_files(root)) == 2  # values + mask
    assert float(column.values[0]) == float(stored.take([0]).column("a").values[0])
    del column
    assert _mapped_store_files(root) == []


def test_a_top_k_scan_leaves_no_file_mapped(tmp_path):
    if not sys.platform.startswith("linux"):
        pytest.skip("reads /proc/self/maps")
    root = tmp_path / "store"
    write_store(_grouped_table(2_000, seed=6), root, chunk_rows=256)
    stored = StoredTable(root)
    assert stored.top_k_sample(100).size == 100
    assert _mapped_store_files(root) == []


class TestHighlightHoldsEachMatchedCellOnce:
    N_ROWS = 240_000
    CHUNK_ROWS = 16_384

    @pytest.fixture(scope="class")
    def stored(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("hl_memory") / "s"
        write_store(
            _grouped_table(self.N_ROWS, seed=5), root, chunk_rows=self.CHUNK_ROWS
        )
        return StoredTable(root)

    def _explorer(self, stored, predicate, n_matched) -> Explorer:
        """An explorer whose map is one region selecting ``predicate``."""
        explorer = Explorer(stored, config=BlaeuConfig())
        root = Region("r", "all rows", Everything(), stored.n_rows, 0)
        root.children = [Region("r0", "matched", predicate, n_matched, 1)]
        explorer._stack.append(
            ExplorationState(
                selection=Everything(),
                columns=("a",),
                map=DataMap(
                    root=root,
                    columns=("a",),
                    k=1,
                    silhouette=0.0,
                    fidelity=1.0,
                    sample_size=stored.n_rows,
                ),
                action="planted",
            )
        )
        return explorer

    def test_traced_peak_under_one_column_more_than_the_matches(self, stored):
        predicate = Comparison("a", "<", 7.5)
        n_matched = int(stored.scan_mask(predicate).sum())
        assert 0.5 * self.N_ROWS < n_matched < self.N_ROWS
        inspect = ("a", "b", "c", "tag")
        numeric = 3
        explorer = self._explorer(stored, predicate, n_matched)
        explorer.highlight("r0", columns=inspect)  # warm: dictionaries, imports
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            highlight = explorer.highlight("r0", columns=inspect)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert highlight.n_rows == n_matched
        assert peak - before < (numeric + 1) * n_matched * 8


# ----------------------------------------------------------------------
# Selections: n/8 bytes per cached sample
# ----------------------------------------------------------------------


def _post(port: int, command: str, body: dict) -> dict:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        connection.request(
            "POST", f"/v1/commands/{command}", body=json.dumps(body).encode()
        )
        response = connection.getresponse()
        payload = json.loads(response.read())
    finally:
        connection.close()
    assert response.status == 200, payload
    return payload


def _served_walk(service: BlaeuService) -> list[dict]:
    """Open, zoom, project and zoom again through ``service``'s HTTP
    port; the maps it answered."""

    def walk(port: int) -> list[dict]:
        session = {"session": "s"}
        maps = [_post(port, "open", {**session, "table": "grouped", "theme": 0})]
        region = maps[-1]["map"]["root"]["children"][0]["id"]
        maps.append(_post(port, "zoom", {**session, "region": region}))
        maps.append(_post(port, "project", {**session, "theme": 1}))
        region = maps[-1]["map"]["root"]["children"][-1]["id"]
        maps.append(_post(port, "zoom", {**session, "region": region}))
        return maps

    async def main() -> list[dict]:
        await service.start()
        serving = asyncio.create_task(service.serve_forever())
        try:
            return await asyncio.to_thread(walk, service.port)
        finally:
            await service.stop()
            serving.cancel()

    return asyncio.run(main())


class TestCachedSelectionsArePacked:
    N_ROWS = 200_003  # no partition holds a multiple of 8 rows

    def test_a_served_walk_caches_n_over_8_byte_selections(self, tmp_path):
        root = tmp_path / "store"
        write_store(
            _grouped_table(self.N_ROWS, seed=8),
            root,
            chunk_rows=16_384,
            partition_rows=50_001,
        )
        engine = Blaeu(BlaeuConfig(map_sample_size=500, dependency_sample_size=500))
        engine.register(StoredTable(root))
        service = BlaeuService(
            engine, ServiceConfig(port=0, pool=PoolConfig(threads=2, max_pending=8))
        )
        maps = _served_walk(service)
        assert [m["map"]["n_rows"] < self.N_ROWS for m in maps] == [
            False, True, True, True
        ]
        samples = [
            value
            for value, _ in service._cache.memory._entries.values()
            if isinstance(value, SampleArtifact)
        ]
        selections = [
            s.selection_mask for s in samples if s.selection_mask is not None
        ]
        assert len(selections) >= 2  # one per zoom; the whole table has none
        for selection in selections:
            assert selection.dtype == np.uint8
            assert selection.nbytes == -(-self.N_ROWS // 8)
        # Each bitmap is the selection its sample was drawn from.
        for sample in samples:
            if sample.selection_mask is not None:
                rows = np.unpackbits(sample.selection_mask).sum()
                assert rows == packed_count(sample.selection_mask)
                assert rows == sample.n_selection


def _ramp_table(n: int, seed: int) -> Table:
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.0, n)
    x[rng.random(n) < 0.05] = np.nan
    return Table(
        "ramp",
        [
            NumericColumn("row", np.arange(n, dtype=np.float64)),
            NumericColumn("x", x),
            CategoricalColumn.from_labels(
                "tag", [("r", "g", "b")[v] for v in rng.integers(0, 3, n)]
            ),
        ],
    )


class TestPackedCountsEqualMaskCounts:
    N_ROWS = 1_002  # 77 partitions of 13 rows, then one of 1

    @pytest.fixture(scope="class")
    def twins(self, tmp_path_factory):
        table = _ramp_table(self.N_ROWS, seed=12)
        root = tmp_path_factory.mktemp("packed") / "s"
        write_store(table, root, chunk_rows=5, partition_rows=13)
        stored = StoredTable(root)
        assert stored.partitions[-1].rows == 1
        labels = (np.nan_to_num(table.column("x").values) > 0) + 2 * (
            table.column("tag").codes == 1
        )
        tree = fit_tree(table, labels.astype(np.intp), feature_names=["x", "tag"])
        return table, stored, tree

    def test_every_slice_of_a_bitmap_is_the_masks_slice(self):
        mask = np.random.default_rng(3).random(37) < 0.5
        packed = np.packbits(mask)
        for start in range(38):
            for stop in range(start, 38):
                np.testing.assert_array_equal(
                    _selection_rows(packed, start, stop), mask[start:stop]
                )

    @pytest.mark.parametrize(
        "predicate",
        [
            Between("row", 250.0, 612.0),  # zone maps prune most partitions
            Comparison("row", ">=", 1_000.0),  # the 1-row partition alone
            Comparison("row", "<", 1.0),  # one row of the first partition
            Or([Comparison("row", "<", 7.0), Comparison("row", ">", 990.0)]),
            Comparison("x", ">", 0.3),  # scattered: no partition pruned
            Comparison("row", "<", 0.0),  # nothing
        ],
        ids=["pruned", "one_row_partition", "one_row", "edges", "scattered", "empty"],
    )
    def test_counts_over_the_bitmap_equal_the_bool_mask_counts(
        self, twins, predicate
    ):
        table, stored, tree = twins
        mask = np.asarray(predicate.mask(table), dtype=bool)
        expected = count_reaching(tree.root, table, mask)
        np.testing.assert_array_equal(stored.scan_mask(predicate), mask)
        for resident in (stored, table):
            counts = _node_counts(tree, resident, np.packbits(mask))
            np.testing.assert_array_equal(counts, expected)

    def test_a_bitmap_of_another_table_is_refused(self, twins):
        table, stored, tree = twins
        short = np.packbits(np.ones(self.N_ROWS - 8, dtype=bool))
        with pytest.raises(ValueError, match="does not cover"):
            _node_counts(tree, stored, short)


class TestParentFormatSampleArtifacts:
    """A sample artifact written when the selection was a byte per row
    (a boolean mask) decodes as corruption, so a disk cache holding one
    serves a miss — the sample is rebuilt — and never a count."""

    COLUMNS = ("a", "b", "c")

    @pytest.fixture(scope="class")
    def stored(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("parent_format") / "s"
        write_store(_grouped_table(6_007, seed=9), root, partition_rows=1_001)
        return StoredTable(root)

    def _pipeline(self, stored, cache=None) -> MapPipeline:
        return MapPipeline(
            stored,
            self.COLUMNS,
            BlaeuConfig(map_sample_size=300),
            selection=Comparison("p", "<", 5.0),
            cache=cache,
        )

    @staticmethod
    def _byte_per_row(artifact: SampleArtifact, n_rows: int) -> SampleArtifact:
        mask = np.unpackbits(artifact.selection_mask, count=n_rows).view(bool)
        return SampleArtifact(
            artifact.sample, mask, artifact.n_selection, artifact.rng_state
        )

    def test_the_codec_refuses_a_boolean_selection(self, stored):
        artifact = self._pipeline(stored).sample_artifact()
        assert decode(encode(artifact)).selection_mask.tobytes() == (
            artifact.selection_mask.tobytes()
        )
        with pytest.raises(ArtifactCorruptError, match="bitmap"):
            decode(encode(self._byte_per_row(artifact, stored.n_rows)))

    def test_the_codec_refuses_a_bitmap_of_another_selection(self, stored):
        artifact = self._pipeline(stored).sample_artifact()
        wrong = SampleArtifact(
            artifact.sample,
            artifact.selection_mask,
            artifact.n_selection + 1,
            artifact.rng_state,
        )
        with pytest.raises(ArtifactCorruptError, match="bitmap"):
            decode(encode(wrong))

    def test_a_disk_entry_of_the_old_format_is_rebuilt_not_counted(
        self, stored, tmp_path
    ):
        reference = self._pipeline(stored).build("exact")
        disk = ArtifactCache(tmp_path / "l2")
        cache = TieredCache(LRUCache(max_size=64), disk)
        pipeline = self._pipeline(stored, cache)
        fresh = self._pipeline(stored).sample_artifact()
        old = self._byte_per_row(fresh, stored.n_rows)
        assert disk.put(pipeline._stage_key("sample"), old)

        built = pipeline.build("exact")
        assert [r.n_rows for r in built.root.walk()] == [
            r.n_rows for r in reference.root.walk()
        ]
        assert pipeline.stages[0].name == "sample" and not pipeline.stages[0].hit
        assert len(list((tmp_path / "l2" / "quarantine").iterdir())) == 1
        # The rebuilt sample replaced the old entry on disk.
        fresh = disk.get(pipeline._stage_key("sample"))
        assert fresh.selection_mask.dtype == np.uint8
