"""Unit tests for the store manifest and raw-file layout."""

import json

import numpy as np
import pytest

from repro.store.format import (
    FORMAT_VERSION,
    MANIFEST_NAME,
    ColumnMeta,
    StoreManifest,
    StreamingFingerprint,
    write_store,
)
from repro.store.stored import StoredTable
from repro.table.column import CategoricalColumn, NumericColumn
from repro.table.table import Table


@pytest.fixture
def table() -> Table:
    return Table(
        "mixed",
        [
            NumericColumn("x", [1.0, np.nan, 3.5, -2.0]),
            CategoricalColumn.from_labels("c", ["a", "b", None, "a"]),
        ],
    )


class TestManifest:
    def test_round_trip(self, table, tmp_path):
        manifest = write_store(table, tmp_path, chunk_rows=2)
        loaded = StoreManifest.load(tmp_path)
        assert loaded == manifest
        assert loaded.n_rows == 4
        assert loaded.chunk_rows == 2
        assert loaded.format_version == FORMAT_VERSION
        assert [m.kind for m in loaded.columns] == ["numeric", "categorical"]

    def test_missing_manifest_is_descriptive(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="store directory"):
            StoreManifest.load(tmp_path)

    def test_wrong_format_rejected(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text(json.dumps({"format": "other"}))
        with pytest.raises(ValueError, match="not a blaeu.store manifest"):
            StoreManifest.load(tmp_path)

    def test_future_version_rejected(self, table, tmp_path):
        write_store(table, tmp_path)
        payload = json.loads((tmp_path / MANIFEST_NAME).read_text())
        payload["format_version"] = FORMAT_VERSION + 1
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="format_version"):
            StoreManifest.load(tmp_path)

    def test_column_meta_requires_role_files(self):
        with pytest.raises(ValueError, match="lacks files"):
            ColumnMeta(name="x", kind="numeric", files={"values": "v.bin"})
        with pytest.raises(ValueError, match="unknown column kind"):
            ColumnMeta(name="x", kind="weird", files={})

    def test_column_lookup(self, table, tmp_path):
        manifest = write_store(table, tmp_path)
        assert manifest.column("x").kind == "numeric"
        with pytest.raises(KeyError, match="no column 'ghost'"):
            manifest.column("ghost")


class TestWriteStore:
    def test_fingerprint_matches_in_memory_table(self, table, tmp_path):
        manifest = write_store(table, tmp_path)
        assert manifest.fingerprint == table.fingerprint()

    def test_priority_seed_draws_the_ingest_permutation(self, table, tmp_path):
        """The in-memory twin of ``ingest_csv(priority_seed=)``."""
        manifest = write_store(table, tmp_path, priority_seed=9)
        assert manifest.priority_seed == 9
        priorities = np.fromfile(tmp_path / manifest.priority_file, "<i8")
        expected = np.random.default_rng(9).permutation(table.n_rows)
        np.testing.assert_array_equal(priorities, expected)

    def test_truncated_data_file_detected_on_open(self, table, tmp_path):
        manifest = write_store(table, tmp_path)
        values = tmp_path / manifest.columns[0].files["values"]
        values.write_bytes(values.read_bytes()[:-8])
        with pytest.raises(ValueError, match="holds .* bytes"):
            StoredTable(tmp_path)

    def test_missing_data_file_detected_on_open(self, table, tmp_path):
        manifest = write_store(table, tmp_path)
        (tmp_path / manifest.columns[0].files["mask"]).unlink()
        with pytest.raises(FileNotFoundError, match="missing"):
            StoredTable(tmp_path)


class TestStreamingFingerprint:
    def test_matches_table_fingerprint_any_chunking(self, table, tmp_path):
        manifest = write_store(table, tmp_path)
        for chunk_rows in (1, 3, 100):
            stream = StreamingFingerprint(table.n_rows, chunk_rows)
            for meta in manifest.columns:
                if meta.kind == "numeric":
                    stream.add_numeric(
                        meta.name,
                        tmp_path / meta.files["values"],
                        tmp_path / meta.files["mask"],
                    )
                else:
                    categories = tuple(
                        json.loads(
                            (tmp_path / meta.files["categories"]).read_text()
                        )
                    )
                    stream.add_categorical(
                        meta.name,
                        tmp_path / meta.files["codes"],
                        tmp_path / meta.files["mask"],
                        categories,
                    )
            assert stream.hexdigest() == table.fingerprint()
