"""Partitions, zone maps, and pruning: correctness before speed.

Pruning must be *provably* conservative — a skipped partition never
changes a scan's result, only its cost — so every pruning test asserts
both the IO budget (``data_reads``) and bit-identity against the
in-memory predicate mask.
"""

import json

import numpy as np
import pytest

from repro.store import StoredTable, write_store
from repro.store.format import (
    ColumnZone,
    PartitionMeta,
    StoreManifest,
    partition_spans,
)
from repro.store.partitions import compute_zones, repartition, zone_proves_empty
from repro.table.column import CategoricalColumn, NumericColumn
from repro.table.predicates import (
    And,
    Between,
    Comparison,
    Everything,
    In,
    IsMissing,
    Not,
    Or,
)
from repro.table.table import Table


def _table(n=400) -> Table:
    # x is 0..n-1 so each 100-row partition owns a disjoint value range;
    # y is all-NaN in the first partition; z is constant; cat is
    # all-missing in the third partition.
    x = np.arange(n, dtype=float)
    y = x * 2.0
    y[:100] = np.nan
    z = np.full(n, 5.0)
    labels = [["a", "b"][i % 2] if not 200 <= i < 300 else None for i in range(n)]
    return Table(
        "zones",
        [
            NumericColumn("x", x),
            NumericColumn("y", y),
            NumericColumn("z", z),
            CategoricalColumn.from_labels("cat", labels),
        ],
    )


@pytest.fixture
def table() -> Table:
    return _table()


@pytest.fixture
def stored(table, tmp_path) -> StoredTable:
    write_store(table, tmp_path / "s", chunk_rows=100, partition_rows=100)
    return StoredTable(tmp_path / "s")


class TestZoneMaps:
    def test_write_store_records_partitions(self, stored):
        assert [(p.start, p.stop) for p in stored.partitions] == [
            (0, 100),
            (100, 200),
            (200, 300),
            (300, 400),
        ]

    def test_numeric_zones(self, stored):
        zones = stored.partitions[1].zones
        assert zones["x"] == ColumnZone(null_count=0, min=100.0, max=199.0)
        assert zones["y"] == ColumnZone(null_count=0, min=200.0, max=398.0)
        assert zones["z"] == ColumnZone(null_count=0, min=5.0, max=5.0)

    def test_all_null_numeric_zone(self, stored):
        zone = stored.partitions[0].zones["y"]
        assert zone == ColumnZone(null_count=100, min=None, max=None)

    def test_categorical_zone_counts_nulls_only(self, stored):
        assert stored.partitions[0].zones["cat"] == ColumnZone(null_count=0)
        assert stored.partitions[2].zones["cat"] == ColumnZone(null_count=100)

    def test_partition_spans_tile(self):
        assert partition_spans(10, 4) == [(0, 4), (4, 8), (8, 10)]
        assert partition_spans(10, 4, start=8) == [(8, 10)]
        assert partition_spans(0, 4) == []

    def test_manifest_rejects_non_tiling_partitions(self, stored, tmp_path):
        import dataclasses

        manifest = StoreManifest.load(tmp_path / "s")
        bad = (PartitionMeta(0, 100), PartitionMeta(150, 400))
        with pytest.raises(ValueError, match="tile"):
            dataclasses.replace(manifest, partitions=bad)

    def test_ingest_records_same_zones(self, table, stored, tmp_path):
        import io

        from repro.store.ingest import ingest_csv

        lines = ["x,y,z,cat"]
        for i in range(table.n_rows):
            y = "" if i < 100 else f"{i * 2.0}"
            cat = "" if 200 <= i < 300 else ["a", "b"][i % 2]
            lines.append(f"{float(i)},{y},5.0,{cat}")
        ingest_csv(
            io.StringIO("\n".join(lines)),
            tmp_path / "ingested",
            name="zones",
            chunk_rows=100,
            partition_rows=100,
        )
        manifest = StoreManifest.load(tmp_path / "ingested")
        assert manifest.partitions == StoreManifest.load(tmp_path / "s").partitions


#: Column values for the zone pass, 30 rows in chunks of 7: the first
#: chunks null-free, a later one partly missing.
_NAN = np.nan
ZONE_COLUMNS = {
    "null-free": np.arange(30, dtype=float) - 11.5,
    "partly missing": np.where(np.arange(30) % 9 == 8, _NAN, np.arange(30.0)),
    "all missing": np.full(30, _NAN),
    "infinities": np.array([1.0, np.inf, -2.0, -np.inf] * 7 + [_NAN, 3.0]),
    "signed zeros": np.array([0.0, -0.0] * 14 + [_NAN, -0.0]),
}


class TestComputeZones:
    """Zones read chunk by chunk (a null-free chunk's values are its
    present values, uncopied) equal a whole-column NumPy reference."""

    @pytest.mark.parametrize("values", ZONE_COLUMNS.values(), ids=ZONE_COLUMNS.keys())
    def test_zones_equal_the_whole_column_reference(self, values, tmp_path):
        codes = np.where(np.isnan(values), -1, 0).astype(np.int32)
        table = Table(
            "z",
            [NumericColumn("v", values), CategoricalColumn("c", codes, ("k",))],
        )
        write_store(table, tmp_path / "s", chunk_rows=7, partition_rows=30)
        columns = StoreManifest.load(tmp_path / "s").columns
        zones = compute_zones(tmp_path / "s", columns, 0, 30, 7)
        present = values[~np.isnan(values)]
        missing = int(np.isnan(values).sum())
        assert zones["c"] == ColumnZone(null_count=missing)
        assert zones["v"] == ColumnZone(
            null_count=missing,
            min=float(np.min(present)) if present.size else None,
            max=float(np.max(present)) if present.size else None,
        )


class TestZoneProvesEmpty:
    KINDS = {"x": "numeric", "cat": "categorical"}

    def part(self, **zones):
        return PartitionMeta(0, 100, zones=zones)

    def test_range_misses(self):
        part = self.part(x=ColumnZone(0, 10.0, 20.0))
        assert zone_proves_empty(Comparison("x", "<", 10.0), part, self.KINDS)
        assert zone_proves_empty(Comparison("x", ">", 20.0), part, self.KINDS)
        assert zone_proves_empty(Comparison("x", ">=", 20.5), part, self.KINDS)
        assert zone_proves_empty(Comparison("x", "==", 9.0), part, self.KINDS)
        assert zone_proves_empty(Between("x", 21.0, 30.0), part, self.KINDS)
        assert not zone_proves_empty(Comparison("x", "<=", 10.0), part, self.KINDS)
        assert not zone_proves_empty(Between("x", 19.0, 21.0), part, self.KINDS)

    def test_all_null_prunes_value_predicates(self):
        part = self.part(
            x=ColumnZone(100, None, None), cat=ColumnZone(100, None, None)
        )
        assert zone_proves_empty(Comparison("x", ">", 0.0), part, self.KINDS)
        assert zone_proves_empty(Comparison("cat", "==", "a"), part, self.KINDS)
        assert zone_proves_empty(In("cat", ("a", "b")), part, self.KINDS)
        assert not zone_proves_empty(IsMissing("x"), part, self.KINDS)

    def test_null_free_prunes_is_missing(self):
        part = self.part(x=ColumnZone(0, 1.0, 2.0))
        assert zone_proves_empty(IsMissing("x"), part, self.KINDS)

    def test_connectives(self):
        part = self.part(x=ColumnZone(0, 10.0, 20.0))
        hit = Comparison("x", ">", 15.0)
        miss = Comparison("x", ">", 25.0)
        assert zone_proves_empty(And((hit, miss)), part, self.KINDS)
        assert not zone_proves_empty(Or((hit, miss)), part, self.KINDS)
        assert zone_proves_empty(Or((miss, miss)), part, self.KINDS)
        assert not zone_proves_empty(Not(miss), part, self.KINDS)
        assert not zone_proves_empty(Everything(), part, self.KINDS)

    def test_unknown_column_or_missing_zone_never_prunes(self):
        part = self.part()
        assert not zone_proves_empty(Comparison("x", ">", 1e9), part, self.KINDS)


class TestPruning:
    """Each case asserts the read budget AND bit-identity."""

    def check(self, stored, table, predicate, skipped, reads):
        before = stored.data_reads
        mask = stored.scan_mask(predicate)
        assert stored.partitions_skipped == skipped
        assert stored.data_reads - before == reads
        np.testing.assert_array_equal(mask, predicate.mask(table))

    def test_selective_predicate_reads_one_partition(self, stored, table):
        self.check(stored, table, Comparison("x", ">", 350.0), skipped=3, reads=1)

    def test_all_nan_partition_is_skipped(self, stored, table):
        # y < 250 covers partition 1 by value; partition 0 is all-NaN
        # and partitions 2..3 are out of range.
        self.check(stored, table, Comparison("y", "<", 250.0), skipped=3, reads=1)

    def test_constant_column_prunes_everything_or_nothing(self, stored, table):
        self.check(stored, table, Comparison("z", "==", 6.0), skipped=4, reads=0)
        stored2 = StoredTable(stored.root)
        self.check(
            stored2, table, Comparison("z", "==", 5.0), skipped=0, reads=4
        )

    def test_boundary_straddling_predicate(self, stored, table):
        self.check(stored, table, Between("x", 95.0, 105.0), skipped=2, reads=2)

    def test_all_missing_categorical_partition(self, stored, table):
        self.check(
            stored, table, Comparison("cat", "==", "a"), skipped=1, reads=3
        )

    def test_is_missing_prunes_null_free_partitions(self, stored, table):
        self.check(stored, table, IsMissing("y"), skipped=3, reads=1)

    def test_conjunction_intersects_prunes(self, stored, table):
        # x > 150 prunes partition 0 (x ends at 99); y < 390 prunes
        # partitions 2..3 (y starts at 400 there) and partition 0 again
        # (all-NaN).  Only partition 1 survives.
        predicate = And((Comparison("x", ">", 150.0), Comparison("y", "<", 390.0)))
        self.check(stored, table, predicate, skipped=3, reads=2)

    def test_select_goes_through_pruned_scan(self, stored, table):
        selected = stored.select(Comparison("x", ">=", 399.0))
        assert selected.n_rows == 1
        assert stored.partitions_skipped == 3


class TestBackwardCompat:
    def strip(self, root):
        """Rewrite the manifest as a pre-partitioning store would have it."""
        path = root / "manifest.json"
        doc = json.loads(path.read_text())
        doc.pop("partitions", None)
        doc.pop("version", None)
        path.write_text(json.dumps(doc))

    def test_old_manifest_loads_as_implicit_partition(self, table, tmp_path):
        write_store(table, tmp_path / "s", chunk_rows=100, partition_rows=100)
        self.strip(tmp_path / "s")
        manifest = StoreManifest.load(tmp_path / "s")
        assert manifest.partitions == ()
        assert manifest.version == 1
        assert manifest.previous_fingerprint is None
        stored = StoredTable(tmp_path / "s")
        assert [(p.start, p.stop) for p in stored.partitions] == [(0, 400)]
        assert stored.partitions[0].zones == {}

    def test_old_store_scans_never_prune(self, table, tmp_path):
        write_store(table, tmp_path / "s", chunk_rows=100, partition_rows=100)
        self.strip(tmp_path / "s")
        stored = StoredTable(tmp_path / "s")
        predicate = Comparison("x", ">", 350.0)
        mask = stored.scan_mask(predicate)
        assert stored.partitions_skipped == 0
        np.testing.assert_array_equal(mask, predicate.mask(table))

    def test_repartition_round_trip(self, table, tmp_path):
        write_store(table, tmp_path / "s", chunk_rows=100, partition_rows=100)
        expected = StoreManifest.load(tmp_path / "s")
        self.strip(tmp_path / "s")
        manifest = repartition(tmp_path / "s", partition_rows=100)
        assert manifest.partitions == expected.partitions
        assert manifest.fingerprint == expected.fingerprint
        # and the pruned scan now matches the original store's behavior
        stored = StoredTable(tmp_path / "s")
        predicate = Comparison("x", ">", 350.0)
        before = stored.data_reads
        mask = stored.scan_mask(predicate)
        assert stored.partitions_skipped == 3
        assert stored.data_reads - before == 1
        np.testing.assert_array_equal(mask, predicate.mask(table))

    def test_repartition_changes_granularity(self, table, tmp_path):
        write_store(table, tmp_path / "s", chunk_rows=100, partition_rows=100)
        manifest = repartition(tmp_path / "s", partition_rows=200)
        assert [(p.start, p.stop) for p in manifest.partitions] == [
            (0, 200),
            (200, 400),
        ]
        assert manifest.partitions[0].zones["x"].max == 199.0


class TestProjectionScanReads:
    """scan_mask under projection reads only predicate columns (exact)."""

    def test_scan_mask_projection_read_budget(self, table, tmp_path):
        write_store(table, tmp_path / "s", chunk_rows=100, partition_rows=100)
        stored = StoredTable(tmp_path / "s")
        view = stored.project(("x", "y", "cat"))
        predicate = Comparison("x", ">=", 0.0)  # no partition prunable
        before = view.data_reads
        mask = view.scan_mask(predicate)
        # 4 partitions x 1 chunk x 1 referenced column — projection or
        # not, the scan reads the predicate's columns and nothing else.
        assert view.data_reads - before == 4
        np.testing.assert_array_equal(mask, predicate.mask(table))

    def test_scan_mask_rejects_hidden_columns(self, table, tmp_path):
        write_store(table, tmp_path / "s", chunk_rows=100, partition_rows=100)
        view = StoredTable(tmp_path / "s").project(("x",))
        with pytest.raises(KeyError, match="y"):
            view.scan_mask(Comparison("y", ">", 0.0))
