"""A served process holds what it computes, not what it has read.

Two contracts of the store-backed read paths: no column file stays
mapped once the call that mapped it returns (a kept map keeps every
page it ever faulted resident), and a highlight holds each matched
present cell of its numeric columns once — never the selection's
masks, a second concatenated copy, or a copy for the median.
"""

import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import BlaeuConfig
from repro.core.datamap import DataMap, Region
from repro.core.engine import Blaeu
from repro.core.navigation import ExplorationState, Explorer
from repro.store import StoredTable, write_store
from repro.table.column import CategoricalColumn, NumericColumn
from repro.table.predicates import Comparison, Everything
from repro.table.table import Table


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
    """The column files (values, masks, codes) of the store at ``root``
    this process has memory-mapped now.  (The catalog's sample cascade
    maps the priority file for the table's life; no navigation action
    reads it.)"""
    prefix = str((root / "columns").resolve()) + "/"
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
