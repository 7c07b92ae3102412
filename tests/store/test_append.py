"""Incremental ingest: append must equal re-ingesting the concatenation.

The contract is byte-level — same column files, same category order,
same content fingerprint — plus crash-safety: the manifest is the
commit point, and any failure before it leaves the store exactly as it
was (every file of the store, byte for byte).
"""

import io
import os
import pathlib

import numpy as np
import pytest

import repro.store.ingest as ingest
from repro.store import StoredTable
from repro.store.format import StoreManifest
from repro.store.ingest import append_csv, ingest_csv

HEADER = "x,y,cat"


def _rows(start, count, cats="ab"):
    return [
        f"{i},{i * 0.5},{cats[i % len(cats)]}"
        for i in range(start, start + count)
    ]


def _csv(rows):
    return io.StringIO("\n".join([HEADER, *rows]))


def _snapshot(root):
    """Every file under ``root``, by relative path, with its bytes."""
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def _fail_at(site, monkeypatch):
    """Make one write site of an append fail with "disk full" — after
    its write landed, where a write happens, so a rollback has
    something to undo."""

    def full():
        raise OSError(f"disk full at the {site}")

    if site == "column file append":
        original, calls = ingest._append_file, []

        def append_then_fail(tmp, target):
            original(tmp, target)
            calls.append(target)
            if len(calls) == 3:  # x values and mask, then y's values
                full()

        monkeypatch.setattr(ingest, "_append_file", append_then_fail)
    elif site == "categories rewrite":
        write_text = pathlib.Path.write_text

        def write_then_fail(path, text, *args, **kwargs):
            written = write_text(path, text, *args, **kwargs)
            if path.name.endswith(".categories.json"):
                monkeypatch.setattr(pathlib.Path, "write_text", write_text)
                full()
            return written

        monkeypatch.setattr(pathlib.Path, "write_text", write_then_fail)
    elif site == "priority rewrite":
        write_priorities = ingest.write_priorities

        def write_then_fail(root, n_rows, seed):
            write_priorities(root, n_rows, seed)
            monkeypatch.setattr(ingest, "write_priorities", write_priorities)
            full()

        monkeypatch.setattr(ingest, "write_priorities", write_then_fail)
    elif site == "zone build":
        monkeypatch.setattr(
            "repro.store.partitions.build_partitions",
            lambda *args, **kwargs: full(),
        )
    else:
        replace = os.replace

        def fail_on_manifest(src, dst):
            if str(dst).endswith("manifest.json"):
                full()
            replace(src, dst)

        monkeypatch.setattr(os, "replace", fail_on_manifest)


@pytest.fixture
def seeded(tmp_path):
    root = tmp_path / "s"
    ingest_csv(
        _csv(_rows(0, 1000)),
        root,
        name="t",
        chunk_rows=128,
        partition_rows=300,
    )
    return root


class TestAppend:
    def test_equals_fresh_ingest_of_concatenation(self, seeded, tmp_path):
        append_csv(_csv(_rows(1000, 700, cats="abc")), seeded, chunk_rows=128)
        fresh = tmp_path / "fresh"
        ingest_csv(
            _csv(_rows(0, 1000) + _rows(1000, 700, cats="abc")),
            fresh,
            name="t",
            chunk_rows=128,
            partition_rows=300,
        )
        appended_manifest = StoreManifest.load(seeded)
        fresh_manifest = StoreManifest.load(fresh)
        # The data (hence the fingerprint) is identical; the partition
        # *layouts* may differ — append keeps the old store's trailing
        # partial partition instead of re-tiling.
        assert appended_manifest.fingerprint == fresh_manifest.fingerprint
        a, b = StoredTable(seeded), StoredTable(fresh)
        np.testing.assert_array_equal(
            a.column("x").values, b.column("x").values
        )
        np.testing.assert_array_equal(
            a.column("cat").codes, b.column("cat").codes
        )
        assert a.categories("cat") == b.categories("cat") == ("a", "b", "c")

    def test_version_and_lineage(self, seeded):
        before = StoreManifest.load(seeded)
        append_csv(_csv(_rows(1000, 10)), seeded)
        after = StoreManifest.load(seeded)
        assert after.version == before.version + 1
        assert after.previous_fingerprint == before.fingerprint
        assert after.n_rows == 1010
        append_csv(_csv(_rows(1010, 10)), seeded)
        final = StoreManifest.load(seeded)
        assert final.version == before.version + 2
        assert final.previous_fingerprint == after.fingerprint

    def test_new_partitions_start_at_old_boundary(self, seeded):
        before = StoreManifest.load(seeded)
        append_csv(_csv(_rows(1000, 450)), seeded)
        after = StoreManifest.load(seeded)
        # Existing partitions (and their zones) are kept verbatim; the
        # appended range gets fresh ones at the same granularity.
        assert after.partitions[: len(before.partitions)] == before.partitions
        fresh = after.partitions[len(before.partitions) :]
        assert [(p.start, p.stop) for p in fresh] == [(1000, 1300), (1300, 1450)]
        assert fresh[0].zones["x"].min == 1000.0

    def test_zone_pruning_covers_appended_rows(self, seeded):
        append_csv(_csv(_rows(1000, 500)), seeded)
        table = StoredTable(seeded)
        from repro.table.predicates import Comparison

        predicate = Comparison("x", ">=", 1400.0)
        mask = table.scan_mask(predicate)
        assert int(mask.sum()) == 100
        assert table.partitions_skipped == 5  # only (1300, 1500) survives

    def test_priorities_rewritten_for_full_length(self, seeded, tmp_path):
        append_csv(_csv(_rows(1000, 200)), seeded, chunk_rows=128)
        fresh = tmp_path / "fresh"
        ingest_csv(_csv(_rows(0, 1200)), fresh, name="t", chunk_rows=128)
        a = StoredTable(seeded).top_k_sample(50)
        b = StoredTable(fresh).top_k_sample(50)
        # Priorities are a seeded permutation of the *full* new length,
        # identical to a fresh ingest's — appended rows are sampleable.
        np.testing.assert_array_equal(a, b)
        assert len(a) == 50 and int(np.max(a)) < 1200

    def test_unparseable_numeric_cells_become_missing(self, seeded):
        source = io.StringIO(f"{HEADER}\noops,1.0,a\n7,not-a-number,b")
        append_csv(source, seeded)
        table = StoredTable(seeded)
        x = table.column("x")
        assert bool(x.missing_mask[1000]) and not bool(x.missing_mask[1001])
        y = table.column("y")
        assert not bool(y.missing_mask[1000]) and bool(y.missing_mask[1001])

    def test_empty_append_is_a_noop(self, seeded):
        before = StoreManifest.load(seeded)
        table = append_csv(_csv([]), seeded)
        assert table.n_rows == 1000
        assert StoreManifest.load(seeded) == before

    def test_header_mismatch_rejected_before_any_write(self, seeded):
        before = StoreManifest.load(seeded)
        sizes = {
            name: (seeded / name).stat().st_size
            for name in ("priority.bin",)
        }
        with pytest.raises(ValueError, match="does not match"):
            append_csv(io.StringIO("x,z\n1,2"), seeded)
        assert StoreManifest.load(seeded) == before
        for name, size in sizes.items():
            assert (seeded / name).stat().st_size == size

    @pytest.mark.parametrize(
        "site",
        [
            "column file append",
            "categories rewrite",
            "priority rewrite",
            "zone build",
            "manifest write",
        ],
    )
    def test_failure_rolls_back_files(self, seeded, monkeypatch, site):
        """A failure at any write site of an append leaves every file of
        the store byte for byte as it was, and the store still opens."""
        before = _snapshot(seeded)
        _fail_at(site, monkeypatch)
        with pytest.raises(OSError, match="disk full"):
            append_csv(_csv(_rows(1000, 100, cats="abc")), seeded)
        monkeypatch.undo()
        assert _snapshot(seeded) == before
        from repro.table.predicates import Everything

        table = StoredTable(seeded)
        assert table.n_rows == 1000
        assert table.select(Everything()).n_rows == 1000
