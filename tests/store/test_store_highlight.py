"""Satellite: highlight on store-backed selections is a pushdown scan.

``Explorer.highlight`` used to materialize the whole selection (every
column of every matching row) before summarizing two or three columns.
On store residency it now runs one chunked pushdown scan over **only
the highlighted columns** — asserted both by result equality with the
in-memory twin and by an exact ``data_reads`` budget.
"""

import numpy as np
import pytest

from repro.core.config import BlaeuConfig
from repro.core.navigation import Explorer
from repro.store import StoredTable, write_store
from repro.table.column import CategoricalColumn, NumericColumn
from repro.table.predicates import And
from repro.table.table import Table

CONFIG = BlaeuConfig(map_k_values=(2, 3), min_zoom_rows=10, seed=3)
CHUNK_ROWS = 100


@pytest.fixture(scope="module")
def table():
    n = 650
    rng = np.random.default_rng(17)
    labels = rng.integers(0, 3, n)
    columns = [
        NumericColumn("x", labels * 5.0 + rng.normal(0, 0.6, n)),
        NumericColumn("y", labels * -4.0 + rng.normal(0, 0.6, n)),
        NumericColumn("z", rng.normal(0, 1.0, n)),
        NumericColumn("w", rng.normal(5, 2.0, n)),
        CategoricalColumn.from_labels(
            "tag", [["r", "g", "b"][v] for v in labels]
        ),
        CategoricalColumn.from_labels(
            "other", [["u", "v"][v % 2] for v in labels]
        ),
    ]
    # Sprinkle missing cells so the summary semantics are exercised.
    x = columns[0]
    values = x.values.copy()
    missing = x.missing_mask.copy()
    missing[::97] = True
    columns[0] = NumericColumn("x", values, missing)
    return Table("blobs", columns)


@pytest.fixture(scope="module")
def stored(table, tmp_path_factory):
    root = tmp_path_factory.mktemp("hl_store") / "s"
    write_store(table, root, chunk_rows=CHUNK_ROWS)
    return StoredTable(root)


def _open(base):
    explorer = Explorer(base, config=CONFIG)
    explorer.open_columns(("x", "y"))
    return explorer


class TestStoreHighlightEquality:
    @pytest.mark.parametrize(
        "inspect", [None, ("x", "tag"), ("z", "other"), ("tag",)]
    )
    def test_identical_to_in_memory_twin(self, table, stored, inspect):
        memory = _open(table)
        store = _open(stored)
        region = memory.state.map.leaves()[0].region_id
        a = memory.highlight(region, columns=inspect)
        b = store.highlight(region, columns=inspect)
        assert a.n_rows == b.n_rows
        assert a.columns == b.columns
        assert a.preview == b.preview
        assert a.category_counts == b.category_counts
        assert set(a.numeric_summaries) == set(b.numeric_summaries)
        for name, stats in a.numeric_summaries.items():
            for key, value in stats.items():
                assert b.numeric_summaries[name][key] == pytest.approx(value)

    def test_zoomed_selection_highlight_matches(self, table, stored):
        memory = _open(table)
        store = _open(stored)
        target = max(memory.state.map.leaves(), key=lambda r: r.n_rows)
        memory.zoom(target.region_id)
        store.zoom(target.region_id)
        region = memory.state.map.leaves()[0].region_id
        a = memory.highlight(region, columns=("x", "tag"))
        b = store.highlight(region, columns=("x", "tag"))
        assert a.n_rows == b.n_rows
        assert a.category_counts == b.category_counts
        assert a.preview == b.preview

    def test_unknown_column_rejected_without_io(self, stored):
        explorer = _open(stored)
        region = explorer.state.map.leaves()[0].region_id
        with pytest.raises(KeyError, match="nope"):
            explorer.highlight(region, columns=("nope",))


class TestStoreHighlightIoBudget:
    def test_one_pushdown_scan_over_highlighted_columns_only(self, stored):
        explorer = _open(stored)
        state = explorer.state
        region = state.map.leaves()[0]
        inspect = ("x", "tag")

        predicate = And.of(state.selection, region.predicate)
        predicate_columns = predicate.columns()
        n_chunks = -(-stored.n_rows // CHUNK_ROWS)  # ceil division
        mask = stored.scan_mask(predicate)
        matching_chunks = sum(
            bool(mask[start : start + CHUNK_ROWS].any())
            for start in range(0, stored.n_rows, CHUNK_ROWS)
        )

        before = stored.data_reads
        explorer.highlight(region.region_id, columns=inspect)
        delta = stored.data_reads - before

        # One chunked pass: every chunk reads the predicate's columns,
        # and a chunk holding a match then reads the highlighted columns
        # the predicate did not — nothing else, nothing twice.
        # Materializing the selection would have read all six columns.
        expected = n_chunks * len(predicate_columns) + matching_chunks * len(
            set(inspect) - predicate_columns
        )
        assert delta == expected

    def test_repeat_highlights_stay_bounded(self, stored):
        explorer = _open(stored)
        region = explorer.state.map.leaves()[0].region_id
        explorer.highlight(region, columns=("y",))
        before = stored.data_reads
        explorer.highlight(region, columns=("y",))
        assert stored.data_reads - before > 0  # scans, not cached maps
        # But never more than the single-column budget.
        n_chunks = -(-stored.n_rows // CHUNK_ROWS)
        predicate = And.of(
            explorer.state.selection,
            explorer.state.map.region(region).predicate,
        )
        assert (
            stored.data_reads - before
            <= n_chunks * (len(predicate.columns()) + 1)
        )
