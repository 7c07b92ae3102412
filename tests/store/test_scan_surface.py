"""The scan surface both residencies share.

An in-memory :class:`~repro.table.table.Table` and a store-backed
:class:`~repro.store.stored.StoredTable` answer the same
``chunk_reader`` / ``scan_chunks`` / ``read_chunk`` / ``take_columns`` /
``scan_mask`` calls, so every partition pass of
:mod:`repro.store.parallel` runs one body on both.  Each test here runs
on both residencies and asserts the same thing of each; what only one
residency does (zone maps, zero-copy chunks) is asserted in
``test_stored_table.py`` and ``tests/table/test_table.py``.
"""

import numpy as np
import pytest

from repro.store import StoredTable, write_store
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

#: Rows per chunk of every scan here: 100 rows are 8 chunks, the last short.
CHUNK = 13


@pytest.fixture
def table(rng) -> Table:
    n = 100
    values = rng.normal(0.0, 1.0, n)
    values[::9] = np.nan
    labels = [["low", "mid", "high"][i % 3] if i % 7 else None for i in range(n)]
    return Table(
        "probe",
        [
            NumericColumn("x", values),
            NumericColumn("y", rng.uniform(-5, 5, n)),
            CategoricalColumn.from_labels("band", labels),
        ],
    )


@pytest.fixture(params=["memory", "store"])
def resident(request, table, tmp_path):
    """The same rows on each residency."""
    if request.param == "memory":
        return table
    write_store(table, tmp_path / "s", chunk_rows=CHUNK, partition_rows=40)
    return StoredTable(tmp_path / "s")


def _concat(chunks, name):
    return np.concatenate([chunk.column(name).values for chunk in chunks])


def _scan(resident, **kwargs):
    """``(start, stop, copied chunk)`` of one scan: a consumer that keeps
    a chunk copies it."""
    kwargs.setdefault("chunk_rows", CHUNK)
    with resident.chunk_reader() as reader:
        return [
            (lo, hi, chunk.take(np.arange(chunk.n_rows)))
            for lo, hi, chunk in resident.scan_chunks(reader, **kwargs)
        ]


class TestScanChunks:
    def test_ranges_tile_the_table(self, resident):
        ranges = [(lo, hi) for lo, hi, _ in _scan(resident)]
        starts = list(range(0, 100, CHUNK))
        assert ranges == [(lo, min(lo + CHUNK, 100)) for lo in starts]

    def test_chunks_reassemble_every_column(self, resident, table):
        chunks = [chunk for _, _, chunk in _scan(resident)]
        for name in table.column_names:
            expected = table.column(name)
            if isinstance(expected, NumericColumn):
                np.testing.assert_array_equal(_concat(chunks, name), expected.values)
            else:
                codes = np.concatenate([c.column(name).codes for c in chunks])
                np.testing.assert_array_equal(codes, expected.codes)

    def test_projection_keeps_the_asked_order(self, resident):
        for _, _, chunk in _scan(resident, columns=["band", "x"]):
            assert chunk.column_names == ("band", "x")

    def test_default_columns_are_all_of_them(self, resident, table):
        for _, _, chunk in _scan(resident):
            assert chunk.column_names == table.column_names

    def test_sub_range(self, resident, table):
        scanned = _scan(resident, columns=["y"], start=20, stop=61)
        assert scanned[0][0] == 20 and scanned[-1][1] == 61
        np.testing.assert_array_equal(
            _concat([c for _, _, c in scanned], "y"),
            table.column("y").values[20:61],
        )

    def test_empty_range_yields_nothing(self, resident):
        assert _scan(resident, start=40, stop=40) == []

    def test_where_skips_chunks_without_a_selected_row(self, resident):
        where = np.zeros(100, dtype=bool)
        where[[3, 70]] = True
        ranges = [(lo, hi) for lo, hi, _ in _scan(resident, where=where)]
        assert ranges == [(0, 13), (65, 78)]

    def test_where_is_relative_to_the_range(self, resident):
        where = np.zeros(50, dtype=bool)
        where[-1] = True
        scanned = _scan(resident, start=50, stop=100, where=where)
        assert [(lo, hi) for lo, hi, _ in scanned] == [(89, 100)]

    def test_unknown_column(self, resident):
        with pytest.raises(KeyError, match="ghost"):
            _scan(resident, columns=["x", "ghost"])

    @pytest.mark.parametrize(
        "start, stop",
        [(-1, None), (60, 40), (0, 101)],
        ids=["negative", "reversed", "past-end"],
    )
    def test_invalid_range(self, resident, start, stop):
        with pytest.raises(ValueError, match="invalid scan range"):
            _scan(resident, start=start, stop=stop)

    def test_where_must_cover_the_range(self, resident):
        with pytest.raises(ValueError, match="does not cover"):
            _scan(resident, start=10, stop=30, where=np.ones(30, dtype=bool))

    def test_negative_chunk_rows(self, resident):
        with pytest.raises(ValueError, match="chunk_rows must be positive"):
            _scan(resident, chunk_rows=-1)


class TestReadsAndGathers:
    def test_read_chunk_is_the_rows_of_the_range(self, resident, table):
        with resident.chunk_reader() as reader:
            chunk = resident.read_chunk(reader, ("x", "band"), 5, 17)
            x = chunk.column("x").values.copy()
            labels = chunk.column("band").labels()
        expected = table.take(np.arange(5, 17))
        np.testing.assert_array_equal(x, expected.column("x").values)
        assert labels == expected.column("band").labels()

    def test_take_columns_is_project_then_take(self, resident, table):
        indices = np.array([97, 0, 42, 42, 13])
        gathered = resident.take_columns(["y", "band"], indices, name="picked")
        expected = table.project(["y", "band"]).take(indices)
        assert gathered.name == "picked"
        assert gathered.column_names == ("y", "band")
        assert gathered.fingerprint() == expected.fingerprint()

    def test_every_partition_survives_everything(self, resident):
        live, skipped = resident.prune_partitions(Everything())
        assert skipped == 0
        assert [(p.start, p.stop) for p in live] == [
            (p.start, p.stop) for p in resident.partitions
        ]
        assert live[0].start == 0 and live[-1].stop == resident.n_rows


PREDICATES = {
    "everything": Everything(),
    "comparison": Comparison("x", ">", 0.0),
    "between": Between("y", -1.0, 2.5),
    "in": In("band", ["low", "high"]),
    "missing": IsMissing("x"),
    "connectives": Or(
        [
            And([Comparison("y", "<", 0.0), Not(IsMissing("band"))]),
            In("band", ["mid"]),
        ]
    ),
}


class TestScanMask:
    @pytest.mark.parametrize(
        "predicate", PREDICATES.values(), ids=PREDICATES.keys()
    )
    def test_equals_the_whole_table_mask(self, resident, table, predicate):
        np.testing.assert_array_equal(
            resident.scan_mask(predicate, chunk_rows=CHUNK), predicate.mask(table)
        )

    def test_unknown_column(self, resident):
        with pytest.raises(KeyError, match="ghost"):
            resident.scan_mask(Comparison("ghost", "<", 1.0))

    def test_select_gathers_the_mask(self, resident, table):
        predicate = Comparison("y", ">=", 1.0)
        selected = resident.select(predicate)
        expected = table.filter(predicate.mask(table))
        assert selected.fingerprint() == expected.fingerprint()
