"""Unit tests for Table.fingerprint and the Database catalog listing."""

import numpy as np

from repro.table.column import CategoricalColumn, NumericColumn
from repro.table.database import Database
from repro.table.table import Table


def make_table(name="t", values=(1.0, 2.0, 3.0), labels=("a", "b", "a")):
    return Table(
        name,
        [
            NumericColumn("x", list(values)),
            CategoricalColumn.from_labels("c", list(labels)),
        ],
    )


class TestFingerprint:
    def test_same_content_same_fingerprint(self):
        assert make_table().fingerprint() == make_table().fingerprint()

    def test_fingerprint_is_hex_sha256(self):
        fingerprint = make_table().fingerprint()
        assert len(fingerprint) == 64
        assert int(fingerprint, 16) >= 0

    def test_table_name_does_not_matter(self):
        # Content hash: the same data under two names is the same data.
        assert (
            make_table("alpha").fingerprint()
            == make_table("beta").fingerprint()
        )
        table = make_table()
        assert Table("other", table.columns).fingerprint() == table.fingerprint()

    def test_value_change_changes_fingerprint(self):
        assert (
            make_table(values=(1.0, 2.0, 3.0)).fingerprint()
            != make_table(values=(1.0, 2.0, 3.5)).fingerprint()
        )

    def test_label_change_changes_fingerprint(self):
        assert (
            make_table(labels=("a", "b", "a")).fingerprint()
            != make_table(labels=("a", "b", "b")).fingerprint()
        )

    def test_column_name_changes_fingerprint(self):
        renamed = Table(
            "t",
            [
                NumericColumn("y", [1.0, 2.0, 3.0]),
                CategoricalColumn.from_labels("c", ["a", "b", "a"]),
            ],
        )
        assert renamed.fingerprint() != make_table().fingerprint()

    def test_column_order_changes_fingerprint(self):
        table = make_table()
        reordered = table.project(["c", "x"])
        assert reordered.fingerprint() != table.fingerprint()

    def test_missing_mask_is_canonical_for_numeric_nans(self):
        # Same mask, same present values -> same fingerprint even though
        # the NaN payload bytes could differ between constructions.
        explicit = NumericColumn(
            "x", [1.0, 0.0, 3.0], missing=np.array([False, True, False])
        )
        inferred = NumericColumn("x", [1.0, np.nan, 3.0])
        assert (
            Table("t", [explicit]).fingerprint()
            == Table("t", [inferred]).fingerprint()
        )

    def test_missing_position_changes_fingerprint(self):
        first = Table("t", [NumericColumn("x", [np.nan, 2.0, 3.0])])
        second = Table("t", [NumericColumn("x", [1.0, np.nan, 3.0])])
        assert first.fingerprint() != second.fingerprint()

    def test_category_lists_are_unambiguous(self):
        # A category containing the old delimiter byte must not collide
        # with the two categories it would have been split into.
        joined = Table(
            "t", [CategoricalColumn("c", [0, 0], categories=["a\x00b"])]
        )
        split = Table(
            "t", [CategoricalColumn("c", [0, 0], categories=["a", "b"])]
        )
        assert joined.fingerprint() != split.fingerprint()

    def test_kind_distinguishes_equal_byte_patterns(self):
        numeric = Table("t", [NumericColumn("x", [0.0, 1.0])])
        categorical = Table(
            "t", [CategoricalColumn.from_labels("x", ["p", "q"])]
        )
        assert numeric.fingerprint() != categorical.fingerprint()

    def test_fingerprint_is_memoized(self):
        table = make_table()
        assert table.fingerprint() is table.fingerprint()

    def test_row_subset_changes_fingerprint(self):
        table = make_table()
        head = table.head(2)
        assert head.fingerprint() != table.fingerprint()


class TestDatabaseCatalog:
    def test_catalog_lists_fingerprints(self):
        database = Database()
        database.register(make_table("one"))
        database.register(
            make_table("two", values=(9.0, 8.0, 7.0), labels=("z", "z", "y"))
        )
        catalog = database.catalog()
        assert [record["name"] for record in catalog] == ["one", "two"]
        for record in catalog:
            assert record["n_rows"] == 3
            assert record["n_columns"] == 2
            assert len(record["fingerprint"]) == 64
        assert catalog[0]["fingerprint"] != catalog[1]["fingerprint"]

    def test_catalog_detects_identical_content_under_two_names(self):
        database = Database()
        database.register(make_table("one"))
        database.register(make_table("copy"))
        catalog = database.catalog()
        assert catalog[0]["fingerprint"] == catalog[1]["fingerprint"]

    def test_catalog_of_empty_database(self):
        assert Database().catalog() == []
