"""Unit tests for the Database catalog."""

import tracemalloc

import numpy as np
import pytest

from repro.table.column import NumericColumn
from repro.table.database import Database
from repro.table.table import Table


@pytest.fixture
def database(people) -> Database:
    db = Database()
    db.register(people)
    return db


class TestCatalog:
    def test_register_and_lookup(self, database, people):
        assert database.table("people") is people
        assert database.table_names() == ("people",)
        assert "people" in database

    def test_missing_table_error_lists_available(self, database):
        with pytest.raises(KeyError, match="available"):
            database.table("nope")

    def test_drop(self, database):
        database.drop("people")
        assert "people" not in database

    def test_load_csv(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n1,x\n2,y\n3,z\n", encoding="utf-8")
        db = Database()
        table = db.load_csv(path)
        assert table.name == "data"
        assert "data" in db

    def test_reregister_replaces(self, database):
        replacement = Table("people", [NumericColumn("only", [1.0, 2.0])])
        database.register(replacement)
        assert database.table("people").n_columns == 1

    def test_registering_draws_nothing_per_row(self):
        """The catalog holds a name; it draws no per-row state (such as
        a sampling permutation) for the table it registers."""
        table = Table("wide", [NumericColumn("x", np.zeros(500_000))])
        db = Database()
        tracemalloc.start()
        try:
            db.register(table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
