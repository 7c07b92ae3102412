"""Unit tests for the graph stage's code cache and residency paths."""

import numpy as np
import pytest

from oracles import encode_table
from repro.graph.codes import (
    CodeCache,
    CodeEntry,
    code_matrix,
    gather_codes,
    resolve_entries,
)
from repro.obs.metrics import reset_metrics
from repro.store import StoredTable, write_store
from repro.table.column import CategoricalColumn, NumericColumn
from repro.table.table import Table


def twin_tables(tmp_path, n=500, seed=11):
    """An in-memory table and its store-backed twin."""
    rng = np.random.default_rng(seed)
    table = Table(
        "twin",
        [
            NumericColumn("x", rng.normal(0.0, 1.0, n)),
            NumericColumn(
                "y",
                np.where(rng.random(n) < 0.2, np.nan, rng.normal(5.0, 2.0, n)),
            ),
            CategoricalColumn.from_labels(
                "tag", list(rng.choice(["north", "east", "south"], n))
            ),
        ],
    )
    root = tmp_path / "store"
    write_store(table, root, chunk_rows=64)
    return table, StoredTable(root)


class TestCodeCache:
    def test_hit_miss_and_eviction(self):
        metrics = reset_metrics()
        cache = CodeCache(max_entries=2)
        entry = CodeEntry(n_codes=3, codes=np.zeros(4, dtype=np.int32))
        assert cache.get(("f", "a", ())) is None
        cache.put(("f", "a", ()), entry)
        cache.put(("f", "b", ()), entry)
        assert cache.get(("f", "a", ())) is entry
        cache.put(("f", "c", ()), entry)  # evicts LRU ("b")
        assert cache.get(("f", "b", ())) is None
        assert metrics.counter("blaeu_graph_code_cache_hits_total") == 1
        assert metrics.counter("blaeu_graph_code_cache_misses_total") == 2
        assert len(cache) == 2

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            CodeCache(max_entries=0)


class TestGatherCodes:
    def test_a_whole_cut_sample_encodes_like_the_oracle(self, tmp_path):
        """With every row in the cut sample, the codes are the
        whole-column discretization the NMI kernels are checked
        against (``tests/oracles.py``)."""
        table, _ = twin_tables(tmp_path)
        names = table.column_names
        gathered = gather_codes(table, names, bin_sample_size=table.n_rows)
        reference = encode_table(table)
        assert np.array_equal(gathered.codes, reference.codes)
        assert gathered.n_codes == reference.n_codes

    def test_full_equals_rows_arange(self, tmp_path):
        table, _ = twin_tables(tmp_path)
        names = table.column_names
        full = gather_codes(table, names)
        explicit = gather_codes(
            table, names, rows=np.arange(table.n_rows, dtype=np.intp)
        )
        assert np.array_equal(full.codes, explicit.codes)
        assert full.n_codes == explicit.n_codes

    def test_residency_bit_identity(self, tmp_path):
        memory, stored = twin_tables(tmp_path)
        names = memory.column_names
        rows = np.sort(
            np.random.default_rng(0).choice(memory.n_rows, 120, replace=False)
        ).astype(np.intp)
        from_memory = gather_codes(memory, names, rows=rows)
        from_store = gather_codes(stored, names, rows=rows)
        assert np.array_equal(from_memory.codes, from_store.codes)
        assert from_memory.n_codes == from_store.n_codes

    def test_cache_reused_across_gathers(self, tmp_path):
        table, _ = twin_tables(tmp_path)
        cache = CodeCache()
        names = table.column_names
        metrics = reset_metrics()
        hits = "blaeu_graph_code_cache_hits_total"
        misses = "blaeu_graph_code_cache_misses_total"
        gather_codes(table, names, cache=cache, rows=np.arange(50))
        assert metrics.counter(misses) == len(names)
        assert metrics.counter(hits) == 0
        gather_codes(table, names, cache=cache, rows=np.arange(50, 100))
        assert metrics.counter(misses) == len(names)
        assert metrics.counter(hits) == len(names)

    def test_bin_sample_is_deterministic(self, tmp_path):
        table, _ = twin_tables(tmp_path)
        a = gather_codes(table, table.column_names, bin_sample_size=64)
        b = gather_codes(table, table.column_names, bin_sample_size=64)
        assert np.array_equal(a.codes, b.codes)


class TestStoredStreaming:
    def test_chunks_concatenate_to_gathered_codes(self, tmp_path):
        memory, stored = twin_tables(tmp_path)
        names = stored.column_names
        entries = resolve_entries(
            stored,
            names,
            bin_sample_size=4096,
            seed=42,
            cache=None,
        )
        with stored.chunk_reader() as reader:
            chunks = [
                code_matrix(chunk, names, entries)
                for _, _, chunk in stored.scan_chunks(reader, names)
            ]
        assert len(chunks) > 1  # chunk_rows=64 over 500 rows
        combined = np.concatenate(chunks, axis=1)
        full = gather_codes(
            memory, names, rows=np.arange(memory.n_rows, dtype=np.intp)
        )
        assert np.array_equal(combined, full.codes)

    def test_store_entries_hold_cuts_not_codes(self, tmp_path):
        _, stored = twin_tables(tmp_path)
        entries = resolve_entries(
            stored,
            stored.column_names,
            bin_sample_size=4096,
            seed=42,
            cache=None,
        )
        assert entries["x"].codes is None and entries["x"].cuts is not None
        assert entries["tag"].codes is None and entries["tag"].cuts is None
        assert entries["tag"].n_codes == 3
