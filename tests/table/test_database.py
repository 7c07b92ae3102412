"""Unit tests for the Database catalog and SelectProject queries."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.table.column import NumericColumn
from repro.table.database import Database, SelectProject
from repro.table.predicates import Comparison, Everything
from repro.table.table import Table


@pytest.fixture
def database(people) -> Database:
    db = Database(seed=3)
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


class TestSelectProject:
    def test_sql_rendering_full(self):
        query = SelectProject(
            table="t",
            columns=("a", "b"),
            predicate=Comparison("a", "<", 3),
            sample=100,
        )
        assert query.to_sql() == (
            'SELECT "a", "b" FROM "t" WHERE "a" < 3 SAMPLE 100'
        )

    def test_sql_rendering_minimal(self):
        assert SelectProject(table="t").to_sql() == 'SELECT * FROM "t"'

    def test_execute_selects_and_projects(self, database):
        result = database.execute(
            SelectProject(
                table="people",
                columns=("name", "age"),
                predicate=Comparison("age", ">=", 40),
            )
        )
        assert result.column_names == ("name", "age")
        assert result.n_rows == 2  # 45, 52

    def test_execute_sampling_bounds(self, database):
        result = database.execute(SelectProject(table="people", sample=2))
        assert result.n_rows == 2

    def test_execute_logs_queries(self, database):
        database.execute(SelectProject(table="people"))
        assert database.query_log == ('SELECT * FROM "people"',)

    def test_sample_stability_across_calls(self, database):
        first = database.execute(SelectProject(table="people", sample=3))
        second = database.execute(SelectProject(table="people", sample=3))
        assert [r for r in first.rows()] == [r for r in second.rows()]


class TestSampleIndices:
    def test_whole_table(self, database):
        indices = database.sample_indices("people", 4)
        assert indices.size == 4

    def test_respects_predicate(self, database, people):
        predicate = Comparison("age", "<", 40)
        indices = database.sample_indices("people", 10, predicate)
        mask = predicate.mask(people)
        assert all(mask[i] for i in indices)

    def test_nested_samples_under_zoom(self, database, people):
        # Multi-scale behaviour through the catalog: restricting the
        # predicate keeps the surviving sample members.
        everything = set(database.sample_indices("people", 3).tolist())
        predicate = Comparison("age", "<", 46)
        zoomed = set(database.sample_indices("people", 3, predicate).tolist())
        survivors = everything & set(
            np.flatnonzero(predicate.mask(people)).tolist()
        )
        assert survivors.issubset(zoomed)

    def test_everything_predicate_equals_none(self, database):
        a = database.sample_indices("people", 3, None)
        b = database.sample_indices("people", 3, Everything())
        assert a.tolist() == b.tolist()

    def test_samples_agree_across_interpreters(self):
        """``str`` hashes are salted per process: a cascade seeded from
        ``hash(table.name)`` sampled differently in every interpreter."""
        script = (
            "from repro.datasets.synthetic import mixed_blobs\n"
            "from repro.table.database import Database\n"
            "database = Database(seed=42)\n"
            "database.register(mixed_blobs(n_rows=2000, k=3, seed=1).table)\n"
            "print(database.sample_indices('mixed_blobs', 5).tolist())\n"
        )
        outputs = {
            subprocess.run(
                [sys.executable, "-c", script],
                env={
                    **os.environ,
                    "PYTHONPATH": str(Path(__file__).resolve().parents[2] / "src"),
                    "PYTHONHASHSEED": hash_seed,
                },
                capture_output=True,
                text=True,
                check=True,
                timeout=60,
            ).stdout
            for hash_seed in ("1", "2")
        }
        assert len(outputs) == 1, outputs
