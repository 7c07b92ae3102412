"""Database integration: registration and catalog residency."""

import sys
from pathlib import Path

import pytest

from repro.store import write_store
from repro.table.column import CategoricalColumn, NumericColumn
from repro.table.database import Database
from repro.table.table import Table


@pytest.fixture
def table(rng) -> Table:
    n = 400
    return Table(
        "pop",
        [
            NumericColumn("v", rng.normal(0.0, 1.0, n)),
            CategoricalColumn.from_labels(
                "g", [["a", "b"][i % 2] for i in range(n)]
            ),
        ],
    )


@pytest.fixture
def db(table, tmp_path) -> Database:
    database = Database()
    database.register(table)
    write_store(Table("pop_store", table.columns), tmp_path / "s", chunk_rows=64)
    database.load_store(tmp_path / "s")
    return database


class TestRegistration:
    def test_both_residencies_registered(self, db):
        assert set(db.table_names()) == {"pop", "pop_store"}

    def test_catalog_reports_residency_and_shared_fingerprint(self, db):
        records = {r["name"]: r for r in db.catalog()}
        assert records["pop"]["residency"] == "memory"
        assert records["pop_store"]["residency"] == "store"
        assert records["pop"]["n_rows"] == records["pop_store"]["n_rows"] == 400
        # Same content — identical fingerprint despite different names
        # and residencies (what makes the map cache shareable).
        assert records["pop"]["fingerprint"] == records["pop_store"]["fingerprint"]

    def test_load_store_with_name_override(self, table, tmp_path):
        database = Database()
        write_store(table, tmp_path / "s")
        stored = database.load_store(tmp_path / "s", name="renamed")
        assert stored.name == "renamed"
        assert "renamed" in database

    def test_drop_store_backed(self, db):
        db.drop("pop_store")
        assert "pop_store" not in db


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc/self/maps"
)
def test_registering_a_store_maps_none_of_its_files(table, tmp_path):
    """The catalog holds a name, not a read: opening and registering a
    store leaves no file of it memory-mapped."""
    root = (tmp_path / "s").resolve()
    write_store(table, root, chunk_rows=64)
    database = Database()
    database.load_store(root)
    assert database.catalog()[0]["residency"] == "store"
    maps = Path("/proc/self/maps").read_text()
    assert str(root) + "/" not in maps
