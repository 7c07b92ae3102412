"""Unit tests for the Table relational core."""

import numpy as np
import pytest

from repro.table.column import NumericColumn
from repro.table.predicates import Comparison
from repro.table.table import DEFAULT_CHUNK_ROWS, Table


class TestConstruction:
    def test_basic(self, people):
        assert people.n_rows == 6
        assert people.n_columns == 4
        assert people.column_names == ("name", "age", "income", "city")

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="inconsistent lengths"):
            Table(
                "t",
                [NumericColumn("a", [1.0]), NumericColumn("b", [1.0, 2.0])],
            )

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Table("t", [NumericColumn("a", [1.0]), NumericColumn("a", [2.0])])

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            Table("t", [])


class TestAccess:
    def test_column_lookup_error_lists_available(self, people):
        with pytest.raises(KeyError, match="available"):
            people.column("nope")

    def test_contains(self, people):
        assert "age" in people
        assert "nope" not in people

    def test_row_access(self, people):
        row = people.row(0)
        assert row == {"name": "ann", "age": 25.0, "income": 20.0, "city": "ams"}

    def test_row_with_missing_values(self, people):
        assert people.row(2)["age"] is None
        assert people.row(5)["city"] is None

    def test_row_out_of_range(self, people):
        with pytest.raises(IndexError):
            people.row(6)

    def test_rows_iterates_all(self, people):
        assert len(list(people.rows())) == 6


class TestRelationalOps:
    def test_select(self, people):
        young = people.select(Comparison("age", "<", 40))
        assert young.n_rows == 3  # 25, 31, 38 (NaN excluded)
        assert [r["name"] for r in young.rows()] == ["ann", "bob", "fox"]

    def test_project_preserves_order(self, people):
        projected = people.project(["city", "age"])
        assert projected.column_names == ("city", "age")
        assert projected.n_rows == people.n_rows

    def test_project_unknown_column_rejected(self, people):
        with pytest.raises(KeyError):
            people.project(["nope"])

    def test_project_empty_rejected(self, people):
        with pytest.raises(ValueError):
            people.project([])

    def test_drop(self, people):
        dropped = people.drop(["name"])
        assert dropped.column_names == ("age", "income", "city")

    def test_take_out_of_range_rejected(self, people):
        with pytest.raises(IndexError):
            people.take(np.asarray([0, 99]))

    def test_take_repeats_rows(self, people):
        taken = people.take(np.asarray([1, 1]))
        assert [r["name"] for r in taken.rows()] == ["bob", "bob"]

    def test_filter_mask_length_checked(self, people):
        with pytest.raises(ValueError):
            people.filter(np.asarray([True]))

    def test_sample_bounds_and_distinctness(self, people, rng):
        sample = people.sample(3, rng=rng)
        assert sample.n_rows == 3
        everything = people.sample(100, rng=rng)
        assert everything.n_rows == people.n_rows

    def test_sample_preserves_source_order(self, rng):
        table = Table("t", [NumericColumn("x", np.arange(100, dtype=float))])
        sample = table.sample(10, rng=rng)
        values = sample.column("x").values  # type: ignore[union-attr]
        assert (np.diff(values) > 0).all()

    def test_head(self, people):
        assert people.head(2).n_rows == 2
        assert people.head(99).n_rows == 6

    def test_immutability_of_source(self, people):
        before = people.n_rows
        people.select(Comparison("age", "<", 40))
        assert people.n_rows == before


class TestOnePartition:
    """An in-memory table is one implicit, zone-less partition read in
    zero-copy chunks (the shared surface is in
    ``tests/store/test_scan_surface.py``)."""

    def test_residency_attributes(self, people):
        assert people.residency == "memory"
        assert people.chunk_rows == DEFAULT_CHUNK_ROWS
        assert not hasattr(people, "scan_jobs")  # every pass is serial
        assert people.data_reads == 0

    def test_one_zoneless_partition(self, people):
        (partition,) = people.partitions
        assert (partition.start, partition.stop) == (0, people.n_rows)
        assert partition.zones == {}

    def test_no_predicate_prunes(self, people):
        live, skipped = people.prune_partitions(Comparison("age", ">", 1e9))
        assert live == list(people.partitions)
        assert skipped == 0

    def test_chunk_reader_holds_nothing(self, people):
        with people.chunk_reader() as reader:
            assert reader is None

    def test_chunks_are_views_of_the_columns(self, people):
        with people.chunk_reader() as reader:
            for lo, hi, chunk in people.scan_chunks(reader, chunk_rows=4):
                for name in ("age", "city"):
                    source = people.column(name)
                    sliced = chunk.column(name)
                    payload = "values" if name == "age" else "codes"
                    assert np.shares_memory(
                        getattr(sliced, payload), getattr(source, payload)
                    )
                    assert [sliced.value_at(i) for i in range(hi - lo)] == [
                        source.value_at(i) for i in range(lo, hi)
                    ]

    def test_scan_mask_runs_one_partition(self, people):
        mask = people.scan_mask(Comparison("age", "<", 40.0), chunk_rows=4)
        np.testing.assert_array_equal(mask, [True, True, False, False, False, True])


class TestDescribe:
    def test_describe_shapes(self, people):
        summary = people.describe()
        assert len(summary) == 4
        age = next(r for r in summary if r["column"] == "age")
        assert age["kind"] == "numeric"
        assert age["missing"] == 1
        assert age["min"] == 25.0
        city = next(r for r in summary if r["column"] == "city")
        assert city["top"] == "ams"
