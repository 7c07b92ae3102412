"""StoredTable must mirror Table's select/project/sample/take surface."""

import numpy as np
import pytest

from repro.store import StoredTable, write_store
from repro.store.format import StoreReadError
from repro.table.column import CategoricalColumn, ColumnKind, NumericColumn
from repro.table.predicates import And, Comparison, Everything, IsMissing
from repro.table.table import Table


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


@pytest.fixture
def stored(table, tmp_path) -> StoredTable:
    write_store(table, tmp_path / "s", chunk_rows=13)
    return StoredTable(tmp_path / "s")


class TestIntrospection:
    def test_shape_and_names(self, stored, table):
        assert stored.n_rows == table.n_rows
        assert stored.n_columns == 3
        assert stored.column_names == table.column_names
        assert len(stored) == len(table)
        assert "x" in stored and "ghost" not in stored
        assert stored.has_column("band")
        assert stored.residency == "store"

    def test_scan_jobs_accepts_only_none(self, stored):
        """Every pass runs serially; the keyword is kept for one caller
        that still passes ``None``, and any width is a ``TypeError``."""
        assert StoredTable(stored.root, scan_jobs=None).n_rows == stored.n_rows
        assert not hasattr(stored, "scan_jobs")
        with pytest.raises(TypeError, match="scan_jobs"):
            StoredTable(stored.root, scan_jobs=2)

    def test_kind_without_io(self, stored):
        assert stored.kind("x") is ColumnKind.NUMERIC
        assert stored.kind("band") is ColumnKind.CATEGORICAL
        assert stored.data_reads == 0

    def test_fingerprint_is_o1_and_matches_memory(self, stored, table):
        assert stored.fingerprint() == table.fingerprint()
        assert stored.data_reads == 0

    def test_unknown_column_raises_with_candidates(self, stored):
        with pytest.raises(KeyError, match="available"):
            stored.column("ghost")

    def test_mapped_columns_equal_memory_columns(self, stored, table):
        for name in table.column_names:
            mapped = stored.column(name)
            expected = table.column(name)
            assert type(mapped).__mro__[1] in (NumericColumn, CategoricalColumn)
            assert isinstance(mapped, type(expected))
            np.testing.assert_array_equal(
                np.asarray(mapped.missing_mask), expected.missing_mask
            )
            assert mapped.n_distinct() == expected.n_distinct()

    def test_describe_matches_memory(self, stored, table):
        assert stored.describe() == table.describe()

    def test_row_access(self, stored, table):
        assert stored.row(3) == table.row(3)
        with pytest.raises(IndexError):
            stored.row(100)


class TestRelationalOps:
    def test_take_matches_table(self, stored, table):
        indices = np.array([5, 1, 1, 40], dtype=np.intp)
        assert stored.take(indices).fingerprint() == table.take(indices).fingerprint()

    def test_take_bounds_checked(self, stored):
        with pytest.raises(IndexError):
            stored.take(np.array([100]))

    def test_select_matches_table(self, stored, table):
        predicate = And.of(
            Comparison("x", ">", 0.0), Comparison("band", "==", "mid")
        )
        assert (
            stored.select(predicate).fingerprint()
            == table.select(predicate).fingerprint()
        )

    def test_select_missing_semantics(self, stored, table):
        predicate = IsMissing("band")
        assert stored.select(predicate).n_rows == table.select(predicate).n_rows

    def test_filter_matches_table(self, stored, table):
        mask = np.zeros(table.n_rows, dtype=bool)
        mask[10:20] = True
        assert stored.filter(mask).fingerprint() == table.filter(mask).fingerprint()
        with pytest.raises(ValueError, match="mask length"):
            stored.filter(mask[:5])

    def test_sample_index_identical_to_table(self, stored, table):
        a = stored.sample(17, np.random.default_rng(77))
        b = table.sample(17, np.random.default_rng(77))
        assert a.fingerprint() == b.fingerprint()

    def test_head(self, stored, table):
        assert stored.head(5).fingerprint() == table.head(5).fingerprint()

    def test_rename(self, stored):
        renamed = stored.rename("other")
        assert renamed.name == "other"
        assert renamed.fingerprint() == stored.fingerprint()


class TestChunkedScans:
    @pytest.mark.parametrize("chunk_rows", [1, 7, 13, 1000])
    def test_scan_mask_matches_any_chunking(self, stored, table, chunk_rows):
        predicate = Comparison("x", "<", 0.5)
        np.testing.assert_array_equal(
            stored.scan_mask(predicate, chunk_rows=chunk_rows),
            predicate.mask(table),
        )

    def test_scan_mask_everything(self, stored):
        assert stored.scan_mask(Everything()).all()

    def test_scan_chunks_projection_pushdown(self, stored, table):
        seen_rows = 0
        with stored.chunk_reader() as reader:
            for start, stop, chunk in stored.scan_chunks(reader, columns=("y",)):
                assert chunk.column_names == ("y",)
                np.testing.assert_array_equal(
                    chunk.column("y").values, table.column("y").values[start:stop]
                )
                seen_rows += chunk.n_rows
        assert seen_rows == table.n_rows

    def test_scan_chunks_unknown_column(self, stored):
        with pytest.raises(KeyError), stored.chunk_reader() as reader:
            list(stored.scan_chunks(reader, columns=("ghost",)))

    def test_chunked_categorical_keeps_global_codes(self, stored, table):
        with stored.chunk_reader() as reader:
            pieces = [
                chunk.column("band").codes.copy()  # the reader reuses its buffers
                for _, _, chunk in stored.scan_chunks(
                    reader, columns=("band",), chunk_rows=9
                )
            ]
        np.testing.assert_array_equal(
            np.concatenate(pieces), table.column("band").codes
        )


class TestProjectionViews:
    def test_project_is_store_backed(self, stored):
        view = stored.project(("y", "x"))
        assert isinstance(view, StoredTable)
        assert view.column_names == ("y", "x")
        assert view.is_projection()

    def test_project_unknown_column(self, stored):
        with pytest.raises(KeyError, match="projection"):
            stored.project(("x", "ghost"))

    def test_drop(self, stored):
        assert stored.drop(("x",)).column_names == ("y", "band")

    def test_projection_fingerprint_distinct_but_cheap(self, stored):
        view = stored.project(("x",))
        assert view.fingerprint() != stored.fingerprint()
        assert view.fingerprint() == stored.project(("x",)).fingerprint()
        assert view.data_reads == 0

    def test_projection_select(self, stored, table):
        view = stored.project(("x", "band"))
        predicate = Comparison("x", ">", 0.0)
        expected = table.project(("x", "band")).select(predicate)
        assert view.select(predicate).fingerprint() == expected.fingerprint()


class TestPersistedSampling:
    def test_top_k_equals_cascade_sample(self, stored):
        for k in (0, 1, 10, 99, 100, 500):
            np.testing.assert_array_equal(
                stored.top_k_sample(k, chunk_rows=17),
                stored.cascade().sample(k),
            )

    def test_top_k_rejects_negative(self, stored):
        with pytest.raises(ValueError):
            stored.top_k_sample(-1)

    def test_top_k_of_a_truncated_priority_file_raises(self, stored, tmp_path):
        path = tmp_path / "s" / stored.manifest.priority_file
        path.write_bytes(path.read_bytes()[: 60 * 8])  # after the open
        with pytest.raises(StoreReadError, match="truncated"):
            stored.top_k_sample(10, chunk_rows=17)

    def test_top_k_of_priorities_that_are_no_permutation_raises(
        self, stored, tmp_path
    ):
        path = tmp_path / "s" / stored.manifest.priority_file
        np.zeros(stored.n_rows, dtype="<i8").tofile(path)
        with pytest.raises(StoreReadError, match="permutation"):
            stored.top_k_sample(10)

    def test_cascade_is_stable_across_opens(self, stored, tmp_path):
        reopened = StoredTable(tmp_path / "s")
        np.testing.assert_array_equal(
            stored.cascade().sample(20), reopened.cascade().sample(20)
        )


class TestEmptyTable:
    def test_zero_row_store(self, tmp_path):
        table = Table("empty", [NumericColumn("x", [])])
        write_store(table, tmp_path / "s")
        stored = StoredTable(tmp_path / "s")
        assert stored.n_rows == 0
        assert stored.select(Everything()).n_rows == 0
        with stored.chunk_reader() as reader:
            assert list(stored.scan_chunks(reader)) == []
        assert stored.top_k_sample(5).size == 0
        assert stored.fingerprint() == table.fingerprint()
