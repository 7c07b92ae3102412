"""The chunked CSV ingester must replicate ``read_csv`` exactly."""

import io

import numpy as np
import pytest

from repro.store import ingest_csv
from repro.table.column import CategoricalColumn, ColumnKind, NumericColumn
from repro.table.csv_io import read_csv


def assert_same_table(stored, memory):
    """Column-by-column equality between a StoredTable and a Table."""
    assert stored.n_rows == memory.n_rows
    assert stored.column_names == memory.column_names
    for name in memory.column_names:
        expected = memory.column(name)
        actual = stored.column(name)
        assert actual.kind is expected.kind, name
        np.testing.assert_array_equal(
            np.asarray(actual.missing_mask), expected.missing_mask
        )
        if isinstance(expected, NumericColumn):
            np.testing.assert_array_equal(
                np.nan_to_num(np.asarray(actual.values)),
                np.nan_to_num(expected.values),
            )
        else:
            assert isinstance(actual, CategoricalColumn)
            assert actual.categories == expected.categories
            np.testing.assert_array_equal(
                np.asarray(actual.codes), expected.codes
            )
    assert stored.fingerprint() == memory.fingerprint()


MIXED_CSV = (
    "income,city,flag,note\n"
    "1200.5,ams,0,alpha\n"
    ",nyc,1,beta\n"
    "900,ams,1,\n"
    "-3.25,,0,alpha\n"
    "na,nyc,1,gamma\n"
)


class TestIngestMatchesReadCsv:
    @pytest.mark.parametrize("chunk_rows", [1, 2, 64])
    def test_mixed_types_and_missing(self, tmp_path, chunk_rows):
        stored = ingest_csv(
            io.StringIO(MIXED_CSV),
            tmp_path / "s",
            name="t",
            chunk_rows=chunk_rows,
        )
        memory = read_csv(io.StringIO(MIXED_CSV), name="t")
        assert_same_table(stored, memory)

    def test_promotion_in_a_late_chunk(self, tmp_path):
        # 10 numeric-looking records, then text: with chunk_rows=3 the
        # promotion happens in chunk 4 and must replay the spilled
        # chunks in order (first-appearance category codes).
        text = "v\n" + "".join(f"{i}.5\n" for i in range(10)) + "surprise\n"
        stored = ingest_csv(
            io.StringIO(text), tmp_path / "s", name="t", chunk_rows=3
        )
        memory = read_csv(io.StringIO(text), name="t")
        assert memory.column("v").kind is ColumnKind.CATEGORICAL
        assert_same_table(stored, memory)

    def test_flag_column_stays_categorical(self, tmp_path):
        text = "f\n1\n0\n1\n1\n0\n"
        stored = ingest_csv(io.StringIO(text), tmp_path / "s", name="t")
        assert stored.kind("f") is ColumnKind.CATEGORICAL
        assert_same_table(stored, read_csv(io.StringIO(text), name="t"))

    def test_all_missing_column_is_categorical(self, tmp_path):
        text = "a,b\n1,\n2,na\n3,?\n"
        stored = ingest_csv(io.StringIO(text), tmp_path / "s", name="t")
        assert stored.kind("a") is ColumnKind.NUMERIC
        assert stored.kind("b") is ColumnKind.CATEGORICAL
        assert_same_table(stored, read_csv(io.StringIO(text), name="t"))

    def test_forced_kinds(self, tmp_path):
        text = "n,c\n1,1\nx,2\n3,3\n"
        kinds = {"n": ColumnKind.NUMERIC, "c": ColumnKind.CATEGORICAL}
        stored = ingest_csv(
            io.StringIO(text), tmp_path / "s", name="t", kinds=kinds
        )
        memory = read_csv(io.StringIO(text), name="t", kinds=kinds)
        assert stored.kind("n") is ColumnKind.NUMERIC
        assert stored.column("n").n_missing == 1  # "x" forced to missing
        assert_same_table(stored, memory)

    def test_header_only_csv(self, tmp_path):
        stored = ingest_csv(io.StringIO("a,b\n"), tmp_path / "s", name="t")
        assert stored.n_rows == 0
        assert_same_table(stored, read_csv(io.StringIO("a,b\n"), name="t"))


class TestIngestSources:
    def test_path_source_uses_stem(self, tmp_path):
        csv_path = tmp_path / "cities.csv"
        csv_path.write_text(MIXED_CSV, encoding="utf-8")
        stored = ingest_csv(csv_path, tmp_path / "s")
        assert stored.name == "cities"

    def test_empty_source_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            ingest_csv(io.StringIO(""), tmp_path / "s", name="t")

    def test_existing_store_not_overwritten(self, tmp_path):
        ingest_csv(io.StringIO(MIXED_CSV), tmp_path / "s", name="t")
        with pytest.raises(FileExistsError):
            ingest_csv(io.StringIO(MIXED_CSV), tmp_path / "s", name="t")

    def test_temporary_spill_files_removed(self, tmp_path):
        stored = ingest_csv(
            io.StringIO(MIXED_CSV), tmp_path / "s", name="t", chunk_rows=2
        )
        assert not (stored.root / "ingest.tmp").exists()
        leftovers = [p.name for p in stored.root.rglob("*.spill.pkl")]
        assert leftovers == []

    def test_priority_seed_persisted(self, tmp_path):
        a = ingest_csv(
            io.StringIO(MIXED_CSV), tmp_path / "a", name="t", priority_seed=9
        )
        b = ingest_csv(
            io.StringIO(MIXED_CSV), tmp_path / "b", name="t", priority_seed=9
        )
        priorities = np.fromfile(a.root / "priority.bin", "<i8")
        np.testing.assert_array_equal(
            priorities, np.fromfile(b.root / "priority.bin", "<i8")
        )
        expected = np.random.default_rng(9).permutation(a.n_rows)
        np.testing.assert_array_equal(priorities, expected)
