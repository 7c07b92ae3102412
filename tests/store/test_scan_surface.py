"""The scan surface both residencies share.

An in-memory :class:`~repro.table.table.Table` and a store-backed
:class:`~repro.store.stored.StoredTable` answer the same
``chunk_reader`` / ``scan_chunks`` / ``scan_partitions`` /
``read_chunk`` / ``take_columns`` / ``scan_mask`` calls, so every
partition pass runs one body on both.  Each test here runs on both
residencies and asserts the same thing of each; what only one residency
does (zone maps, zero-copy chunks) is asserted in
``test_stored_table.py`` and ``tests/table/test_table.py``.  Then the
passes of a navigation action on a store, against its in-memory twin,
and how a pass fails.
"""

import json

import numpy as np
import pytest

from repro.core.navigation import Explorer
from repro.core.pipeline import MapBuilder
from repro.graph.dependency import build_dependency_graph
from repro.resilience.deadline import DeadlineExceeded, deadline_scope
from repro.resilience.faults import (
    InjectedFault,
    clear_faults,
    install_faults,
    parse_faults,
)
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


class TestScanPartitions:
    def _pass(self, resident, partitions, **kwargs):
        """``(start, stop, x copied, reader)`` of one pass."""
        return [
            (lo, hi, chunk.column("x").values.copy(), reader)
            for lo, hi, chunk, reader in resident.scan_partitions(
                partitions, ("x",), CHUNK, **kwargs
            )
        ]

    def test_one_reader_walks_the_partitions_in_order(self, resident, table):
        chunks = self._pass(resident, resident.partitions)
        expected = [
            (lo, min(lo + CHUNK, p.stop))
            for p in resident.partitions
            for lo in range(p.start, p.stop, CHUNK)
        ]
        assert [(lo, hi) for lo, hi, _, _ in chunks] == expected
        assert len({id(reader) for _, _, _, reader in chunks}) == 1
        np.testing.assert_array_equal(
            np.concatenate([x for _, _, x, _ in chunks]), table.column("x").values
        )

    def test_only_the_given_partitions_are_read(self, resident):
        last = resident.partitions[-1]
        chunks = self._pass(resident, [last])
        assert chunks[0][0] == last.start and chunks[-1][1] == last.stop

    def test_where_skips_chunks_without_a_selected_row(self, resident):
        where = np.zeros(100, dtype=bool)
        where[[3, 90]] = True
        every = self._pass(resident, resident.partitions)
        chunks = self._pass(resident, resident.partitions, where=where)
        assert [(lo, hi) for lo, hi, _, _ in chunks] == [
            (lo, hi) for lo, hi, _, _ in every if where[lo:hi].any()
        ]
        assert len(chunks) == 2

    def test_an_expired_deadline_stops_the_pass_at_a_partition(self, resident):
        with deadline_scope(1e-9), pytest.raises(DeadlineExceeded) as excinfo:
            self._pass(resident, resident.partitions)
        assert excinfo.value.stage == "store.partition"


# ----------------------------------------------------------------------
# The passes of an action: a store against its in-memory twin
# ----------------------------------------------------------------------


def _twin_table(n=2000) -> Table:
    rng = np.random.default_rng(7)
    a = rng.normal(size=n)
    a[100:140] = np.nan
    b = rng.uniform(0, 100, size=n)
    c = a * 0.5 + rng.normal(scale=0.3, size=n)
    codes = rng.integers(0, 3, size=n).astype(np.int32)
    return Table(
        "fan",
        [
            NumericColumn("a", a),
            NumericColumn("b", b),
            NumericColumn("c", c),
            CategoricalColumn("d", codes, ("x", "y", "z")),
        ],
    )


@pytest.fixture(scope="module")
def twin():
    return _twin_table()


@pytest.fixture(scope="module")
def store_root(tmp_path_factory, twin):
    root = tmp_path_factory.mktemp("fan") / "s"
    write_store(twin, root, chunk_rows=250, partition_rows=500)
    return root


class TestBitIdentity:
    @pytest.mark.parametrize(
        "predicate",
        [
            Comparison("a", ">", 0.5),
            Between("b", 24.0, 26.0),
            Or((Comparison("a", "<", -2.0), Comparison("d", "==", "y"))),
        ],
        ids=["comparison", "between", "or-categorical"],
    )
    def test_scan_mask(self, store_root, twin, predicate):
        np.testing.assert_array_equal(
            StoredTable(store_root).scan_mask(predicate), predicate.mask(twin)
        )

    def test_exact_map_counts(self, store_root, twin):
        def counts(table):
            data_map = MapBuilder().build(table, ("a", "b", "c", "d"), k=3)
            assert data_map.counts_status == "exact"
            return [region.n_rows for region in data_map.regions()]

        assert counts(StoredTable(store_root)) == counts(twin)

    def test_dependency_graph_weights(self, store_root, twin):
        np.testing.assert_array_equal(
            build_dependency_graph(StoredTable(store_root), seed=42).weights,
            build_dependency_graph(twin, seed=42).weights,
        )

    def test_highlight(self, store_root, twin):
        def highlight(table):
            explorer = Explorer(table)
            explorer.open_columns(("a", "b"))
            return explorer.highlight("r0", columns=("c", "d"))

        assert highlight(StoredTable(store_root)) == highlight(twin)

    def test_pruned_scan_still_identical(self, store_root, twin):
        predicate = Comparison("b", ">", 99.0)
        table = StoredTable(store_root)
        np.testing.assert_array_equal(table.scan_mask(predicate), predicate.mask(twin))


class TestPassFailures:
    def test_deadline_exceeded_propagates_with_stage(self, store_root):
        table = StoredTable(store_root)
        with deadline_scope(1e-9):
            with pytest.raises(DeadlineExceeded) as excinfo:
                table.scan_mask(Comparison("a", ">", 0.0))
        assert excinfo.value.stage in ("store.chunk", "store.partition")
        assert excinfo.value.budget == pytest.approx(1e-9)

    def test_injected_fault_propagates(self, store_root, monkeypatch):
        spec = json.dumps(
            {"seed": 1, "faults": [{"site": "store.read", "mode": "error"}]}
        )
        monkeypatch.setenv("BLAEU_FAULTS", spec)
        install_faults(parse_faults(spec))
        try:
            table = StoredTable(store_root)
            with pytest.raises(InjectedFault):
                table.scan_mask(Comparison("a", ">", 0.0))
        finally:
            clear_faults()
