"""Store passes cost what the selection holds — and change no result.

One differential property for the passes a navigation action runs on a
store (predicate scan, exact region counts, highlight, whole-table NMI)
and for the zone pass behind its partitions, against the in-memory twin
and a whole-column reference: however the rows are cut into partitions
and chunks, each pass is one fold over them in order.  Then the exact
budgets the rule promises: a selection confined to one partition costs
the count and highlight passes only that partition's chunks, a scan on
an open table never loads the manifest again, and a zoom answered from
the map cache reads nothing.
"""

import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import BlaeuConfig
from repro.core.datamap import DataMap, Region
from repro.core.navigation import ExplorationState, Explorer
from repro.core.pipeline import MapBuilder, _exact_regions
from repro.core.themes import Theme
from repro.service.cache import LRUCache
from repro.store import StoredTable, write_store
from repro.store.format import StoreManifest
from repro.table.column import CategoricalColumn, NumericColumn
from repro.table.predicates import (
    And,
    Between,
    Comparison,
    Everything,
    IsMissing,
    Or,
)
from repro.table.table import Table
from repro.tree.cart import CartParams, fit_tree

INSPECT = ("row", "x", "flat", "void", "tag", "blank")


def _mixed_table(n: int, rng: np.random.Generator) -> Table:
    """Missing cells, a constant column, all-missing columns of both
    kinds, and ``row`` — the row number, so zone maps can prune."""
    x = rng.normal(size=n)
    x[rng.random(n) < 0.15] = np.nan
    tag = rng.integers(-1, 3, n).astype(np.int32)
    return Table(
        "mixed",
        [
            NumericColumn("row", np.arange(n, dtype=np.float64)),
            NumericColumn("x", x),
            NumericColumn("y", rng.uniform(-5, 5, n)),
            NumericColumn("flat", np.full(n, 2.5)),
            NumericColumn("void", np.full(n, np.nan)),
            CategoricalColumn("tag", tag, ("a", "b", "c")),
            CategoricalColumn("blank", np.full(n, -1, dtype=np.int32), ("u",)),
        ],
    )


@st.composite
def _cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    n = draw(st.integers(30, 300))
    # Sizes that do not divide each other: partitions end mid-chunk.
    partition_rows = draw(st.sampled_from([23, 50, 97, 1000]))
    chunk_rows = draw(st.sampled_from([7, 16, 33, 64]))
    table = _mixed_table(n, rng)

    part = draw(st.integers(0, (n - 1) // partition_rows))
    lo, hi = part * partition_rows, min((part + 1) * partition_rows, n) - 1
    shape = draw(
        st.sampled_from(["empty", "one row", "one partition", "all", "scattered"])
    )
    selection = {
        "empty": Comparison("row", "<", 0.0),
        "one row": Comparison("row", "==", float(draw(st.integers(0, n - 1)))),
        "one partition": Between("row", float(lo), float(hi)),
        "all": Everything(),
        "scattered": Or((Comparison("x", ">", 0.4), IsMissing("x"))),
    }[shape]
    if shape != "all" and draw(st.booleans()):
        selection = And.of(selection, Comparison("tag", "!=", "b"))

    labels = rng.integers(0, draw(st.integers(2, 4)), n)
    tree = fit_tree(
        table,
        labels,
        feature_names=("x", "y", "void", "tag", "row"),
        params=CartParams(
            max_depth=draw(st.integers(0, 4)),
            min_samples_leaf=1,
            min_samples_split=2,
            min_impurity_decrease=0.0,
        ),
    )
    return table, partition_rows, chunk_rows, selection, tree


def _counts(root: Region) -> list[tuple[str, int, int | None]]:
    return [(r.region_id, r.n_rows, r.n_rows_error) for r in root.walk()]


def _highlight(base, selection, n_selected):
    """``Explorer.highlight`` of a whole selection, without a map build:
    the state is planted, its one region is everything selected."""
    explorer = Explorer(base, config=BlaeuConfig(highlight_preview_rows=5))
    root = Region("r", "all rows", Everything(), n_selected, 0)
    state = ExplorationState(
        selection=selection,
        columns=INSPECT,
        map=DataMap(
            root=root,
            columns=INSPECT,
            k=1,
            silhouette=0.0,
            fidelity=1.0,
            sample_size=n_selected,
        ),
        action="planted",
    )
    explorer._stack.append(state)
    return explorer.highlight("r")


def _check_against_memory(case, check_zones_and_nmi):
    table, partition_rows, chunk_rows, selection, tree = case
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "s"
        write_store(table, root, chunk_rows=chunk_rows, partition_rows=partition_rows)
        stored = StoredTable(root)
        expected = np.asarray(selection.mask(table), dtype=bool)

        mask = stored.scan_mask(selection)
        np.testing.assert_array_equal(mask, expected)

        passed = None if isinstance(selection, Everything) else np.packbits(mask)
        on_store = _exact_regions(tree, stored, passed, {}, {})
        in_memory = _exact_regions(tree, table, passed, {}, {})
        assert _counts(on_store) == _counts(in_memory)
        assert on_store.n_rows == int(expected.sum())

        n_selected = int(expected.sum())
        assert _highlight(stored, selection, n_selected) == _highlight(
            table, selection, n_selected
        )
        check_zones_and_nmi(stored, table, partition_rows)


_relaxed = [HealthCheck.too_slow, HealthCheck.data_too_large]


@settings(max_examples=60, deadline=None, suppress_health_check=_relaxed)
@given(case=_cases())
def test_serial_passes_equal_the_memory_twin(case, check_zones_and_nmi):
    _check_against_memory(case, check_zones_and_nmi)


# ----------------------------------------------------------------------
# Exact budgets
# ----------------------------------------------------------------------

N_ROWS, PARTITION_ROWS, CHUNK_ROWS = 400, 100, 30
#: ceil(100 / 30): every partition is three full chunks and a short one.
CHUNKS_PER_PARTITION = 4


@pytest.fixture(scope="module")
def table():
    return _mixed_table(N_ROWS, np.random.default_rng(5))


@pytest.fixture
def store_root(table, tmp_path):
    root = tmp_path / "s"
    write_store(table, root, chunk_rows=CHUNK_ROWS, partition_rows=PARTITION_ROWS)
    return root


@pytest.fixture(scope="module")
def tree(table):
    labels = (table.column("x").values > 0).astype(np.intp) + (
        table.column("y").values > 1
    )
    fitted = fit_tree(table, labels, feature_names=("x", "y", "tag"))
    assert {n.column for n in fitted.root.walk() if not n.is_leaf} >= {"x", "y"}
    return fitted


def _split_columns(tree):
    return {node.column for node in tree.root.walk() if not node.is_leaf}


class TestReadBudgets:
    def test_count_pass_reads_one_partitions_chunks(self, store_root, table, tree):
        stored = StoredTable(store_root)
        mask = np.zeros(N_ROWS, dtype=bool)
        mask[200:300] = True  # exactly partition 2
        bitmap = np.packbits(mask)
        before = stored.data_reads
        root = _exact_regions(tree, stored, bitmap, {}, {})
        assert stored.data_reads - before == CHUNKS_PER_PARTITION * len(
            _split_columns(tree)
        )
        assert _counts(root) == _counts(_exact_regions(tree, table, bitmap, {}, {}))

    def test_count_pass_skips_chunks_inside_a_partition(self, store_root, tree):
        stored = StoredTable(store_root)
        mask = np.zeros(N_ROWS, dtype=bool)
        mask[205:215] = True  # one chunk of partition 2: rows [200, 230)
        before = stored.data_reads
        root = _exact_regions(tree, stored, np.packbits(mask), {}, {})
        assert stored.data_reads - before == len(_split_columns(tree))
        assert root.n_rows == 10

    def test_empty_selection_reads_nothing(self, store_root, tree):
        stored = StoredTable(store_root)
        before = stored.data_reads
        empty = np.packbits(np.zeros(N_ROWS, dtype=bool))
        root = _exact_regions(tree, stored, empty, {}, {})
        assert stored.data_reads == before
        assert {r.n_rows for r in root.walk()} == {0}

    def test_highlight_reads_one_partitions_chunks(self, store_root, table):
        stored = StoredTable(store_root)
        selection = Between("row", 200.0, 299.0)  # zone maps keep partition 2
        before = stored.data_reads
        highlight = _highlight(stored, selection, 100)
        # One pass in partition 2 alone: every chunk there matches, so
        # each reads ``row`` for the predicate and then the other
        # inspected columns — ``row`` is not read a second time.
        assert stored.data_reads - before == CHUNKS_PER_PARTITION * len(INSPECT)
        assert highlight == _highlight(table, selection, 100)


class TestOneOpenTablePerScan:
    """``StoreManifest.load`` and ``_validate_files`` run when a table is
    opened, never again when it is scanned."""

    @pytest.fixture
    def opens(self, monkeypatch, tmp_path):
        log = tmp_path / "opens.log"
        log.touch()
        load, validate = StoreManifest.load, StoredTable._validate_files

        def record(event):
            with log.open("a") as handle:
                handle.write(f"{os.getpid()} {event}\n")

        def counted_load(root):
            record("load")
            return load(root)

        def counted_validate(self):
            record("validate")
            return validate(self)

        monkeypatch.setattr(StoreManifest, "load", staticmethod(counted_load))
        monkeypatch.setattr(StoredTable, "_validate_files", counted_validate)

        def drain():
            events = [line.split() for line in log.read_text().splitlines()]
            log.write_text("")
            return [(int(pid), event) for pid, event in events]

        return drain

    def _all_passes(self, stored, tree):
        predicate = Comparison("x", ">", -10.0)  # no partition prunable
        mask = stored.scan_mask(predicate)
        assert stored.partitions_skipped == 0 and len(stored.partitions) == 4
        _exact_regions(tree, stored, np.packbits(mask), {}, {})
        _highlight(stored, predicate, int(mask.sum()))

    def test_serial_scans_never_reopen(self, store_root, tree, opens):
        stored = StoredTable(store_root)
        assert sorted(event for _, event in opens()) == ["load", "validate"]
        self._all_passes(stored, tree)
        assert opens() == []


class TestZoomTrustsTheMap:
    CONFIG = BlaeuConfig(map_k_values=(2, 3), map_sample_size=200, seed=3)
    THEME = Theme("xy", ("x", "y"), 1.0)

    def test_cached_zoom_performs_zero_data_reads(self, store_root):
        builder = MapBuilder(result_cache=LRUCache(max_size=64))
        first = Explorer(
            StoredTable(store_root),
            config=self.CONFIG,
            map_builder=builder,
        )
        opened = first.open_theme(self.THEME)
        region = max(opened.leaves(), key=lambda leaf: leaf.n_rows)
        zoomed = first.zoom(region.region_id)
        assert zoomed.n_rows == region.n_rows

        # Another session over a fresh handle of the same store: both
        # maps come from the cache, so no column is mapped or scanned.
        revisit = StoredTable(store_root)
        second = Explorer(revisit, config=self.CONFIG, map_builder=builder)
        assert second.open_theme(self.THEME) is opened
        assert second.zoom(region.region_id) is zoomed
        assert revisit.data_reads == 0

    def test_approximate_maps_are_recounted_by_a_store_scan(self, store_root, table):
        config = BlaeuConfig(
            map_k_values=(2, 3),
            map_sample_size=100,
            seed=3,
            count_mode="approximate",
            min_zoom_rows=N_ROWS + 1,
        )
        stored = StoredTable(store_root)
        explorer = Explorer(stored, config=config)
        opened = explorer.open_theme(self.THEME)
        assert opened.counts_status == "approximate"
        region = opened.leaves()[0]
        exact = int(region.predicate.mask(table).sum())
        before = stored.data_reads
        with pytest.raises(ValueError, match=f"holds {exact} tuples"):
            explorer.zoom(region.region_id)
        # A chunked scan of the predicate's columns, not memory maps
        # (which would cost two reads per column, whatever the size).
        columns = len(region.predicate.columns())
        assert stored.data_reads - before == columns * 4 * CHUNKS_PER_PARTITION
