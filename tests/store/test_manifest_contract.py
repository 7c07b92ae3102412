"""A manifest that lies fails to load; it never steers a scan.

Zone maps decide which partitions a scan skips, so a zone that
contradicts its partition — more nulls than rows, no bounds on a
numeric column that holds values — makes a scan skip rows that match
and return a wrong count without an error.  Each test here writes one
lie into an otherwise valid ``manifest.json`` (resealing its checksum,
as a faulty writer would) and expects :class:`ValueError` on open.

The mutation tests then change ``manifest.json`` every way a disk or a
writer can — the file truncated, a bit flipped, a slice spliced
elsewhere, a line duplicated, a field given another JSON type.  Each
mutant must either fail to open with a typed error or scan exactly as
the original did; a different mask is a silent wrong answer.  Mutants
are drawn from fixed seeds, so a failure names a reproducible mutant.
"""

import dataclasses
import hashlib
import json
import random
from pathlib import Path

import numpy as np
import pytest

from repro.store.format import (
    MANIFEST_NAME,
    ColumnZone,
    PartitionMeta,
    StoreManifest,
    write_store,
)
from repro.store.ingest import append_csv, ingest_csv
from repro.store.partitions import repartition
from repro.store.stored import StoredTable
from repro.table.column import CategoricalColumn, NumericColumn
from repro.table.predicates import Comparison, IsMissing, Or
from repro.table.table import Table

N_ROWS = 200
PARTITION_ROWS = 50


def _table() -> Table:
    """``x`` is the row number, missing on every seventh row; ``c`` a
    two-label categorical with a few missing cells."""
    x = np.arange(N_ROWS, dtype=np.float64)
    x[::7] = np.nan
    labels = [("a", "b")[i % 2] if i % 11 else None for i in range(N_ROWS)]
    return Table(
        "lies",
        [NumericColumn("x", x), CategoricalColumn.from_labels("c", labels)],
    )


@pytest.fixture
def root(tmp_path) -> Path:
    root = tmp_path / "s"
    write_store(_table(), root, chunk_rows=16, partition_rows=PARTITION_ROWS)
    return root


def reseal(doc: dict) -> dict:
    """``doc`` with its checksum recomputed, as the format defines it."""
    body = {key: value for key, value in doc.items() if key != "checksum"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return {**body, "checksum": hashlib.sha256(canonical.encode()).hexdigest()}


def rewrite(root: Path, edit) -> None:
    """Apply ``edit`` to the manifest document and write it resealed."""
    path = root / MANIFEST_NAME
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(reseal(doc)))


def zone(doc: dict, partition: int, column: str) -> dict:
    return doc["partitions"][partition]["zones"][column]


def test_a_faithful_manifest_loads_and_scans(root):
    mask = StoredTable(root).scan_mask(Comparison("x", ">", 50.0))
    assert int(mask.sum()) == int(np.count_nonzero(_table().column("x").values > 50))


class TestNullCount:
    def test_more_nulls_than_rows_is_refused(self, root):
        # At null_count >= rows every value predicate proves the
        # partition empty: a scan would skip its matching rows.
        rewrite(root, lambda doc: zone(doc, 2, "x").update(null_count=51))
        with pytest.raises(ValueError, match="51 nulls in a partition of 50"):
            StoredTable(root)

    def test_a_negative_null_count_is_refused(self, root):
        rewrite(root, lambda doc: zone(doc, 0, "c").update(null_count=-1))
        with pytest.raises(ValueError, match="negative"):
            StoredTable(root)


class TestNumericBounds:
    def test_a_null_min_with_present_values_is_refused(self, root):
        rewrite(root, lambda doc: zone(doc, 1, "x").update(min=None))
        with pytest.raises(ValueError, match="both bounds or with neither"):
            StoredTable(root)

    def test_a_null_max_with_present_values_is_refused(self, root):
        rewrite(root, lambda doc: zone(doc, 3, "x").update(max=None))
        with pytest.raises(ValueError, match="both bounds or with neither"):
            StoredTable(root)

    def test_no_bounds_over_present_values_is_refused(self, root):
        # Both bounds gone reads as "no value present": every value
        # predicate would prune the partition.
        rewrite(root, lambda doc: zone(doc, 1, "x").update(min=None, max=None))
        with pytest.raises(ValueError, match="exactly when a value is present"):
            StoredTable(root)

    def test_bounds_on_an_all_null_partition_are_refused(self, root):
        rewrite(root, lambda doc: zone(doc, 0, "x").update(null_count=50))
        with pytest.raises(ValueError, match="exactly when a value is present"):
            StoredTable(root)

    def test_min_above_max_is_refused(self, root):
        rewrite(root, lambda doc: zone(doc, 2, "x").update(min=150.0, max=101.0))
        with pytest.raises(ValueError, match="> max"):
            StoredTable(root)

    def test_a_nan_min_is_refused(self, root):
        rewrite(root, lambda doc: zone(doc, 2, "x").update(min=float("nan")))
        with pytest.raises(ValueError, match="> max"):
            StoredTable(root)

    def test_a_nan_max_is_refused(self, root):
        rewrite(root, lambda doc: zone(doc, 2, "x").update(max=float("nan")))
        with pytest.raises(ValueError, match="> max"):
            StoredTable(root)

    def test_an_all_null_numeric_partition_loads_and_prunes(self, tmp_path):
        # The other side of the rule: no bounds, every row null.
        table = Table("nulls", [NumericColumn("x", [np.nan] * 60 + [1.0] * 40)])
        write_store(table, tmp_path / "s", partition_rows=30)
        stored = StoredTable(tmp_path / "s")
        assert stored.partitions[0].zones["x"] == ColumnZone(null_count=30)
        assert int(stored.scan_mask(Comparison("x", ">", 0.0)).sum()) == 40
        assert stored.partitions_skipped == 2

    def test_infinite_bounds_load(self, root):
        # ±inf are values a column can hold: they bound a zone.
        rewrite(
            root,
            lambda doc: zone(doc, 2, "x").update(
                min=float("-inf"), max=float("inf")
            ),
        )
        assert StoredTable(root).partitions[2].zones["x"].max == float("inf")


class TestZoneNames:
    def test_bounds_on_a_categorical_zone_are_refused(self, root):
        rewrite(root, lambda doc: zone(doc, 0, "c").update(min=0.0, max=1.0))
        with pytest.raises(ValueError, match="codes carry no order"):
            StoredTable(root)

    def test_a_zone_of_no_manifest_column_is_refused(self, root):
        def edit(doc):
            zones = doc["partitions"][1]["zones"]
            zones["y"] = zones.pop("x")

        rewrite(root, edit)
        with pytest.raises(ValueError, match="names no manifest column: 'y'"):
            StoredTable(root)


class TestIntegerFields:
    @pytest.mark.parametrize(
        ("field", "value"),
        [
            ("n_rows", "200"),
            ("chunk_rows", 16.0),
            ("version", True),
            ("priority_seed", None),
            ("format_version", 1.0),
        ],
    )
    def test_a_manifest_integer_of_another_type_is_refused(
        self, root, field, value
    ):
        rewrite(root, lambda doc: doc.update({field: value}))
        with pytest.raises(ValueError, match=f"'{field}' is .*not an integer"):
            StoredTable(root)

    @pytest.mark.parametrize(
        ("field", "value"), [("start", "50"), ("stop", 100.0), ("stop", False)]
    )
    def test_a_partition_bound_of_another_type_is_refused(
        self, root, field, value
    ):
        # int() would read "50" as 50 and False as 0, and truncate a
        # float: a partition bound is a JSON integer or the load fails.
        rewrite(root, lambda doc: doc["partitions"][1].update({field: value}))
        with pytest.raises(ValueError, match="not an integer"):
            StoredTable(root)

    def test_a_null_count_of_another_type_is_refused(self, root):
        rewrite(root, lambda doc: zone(doc, 1, "x").update(null_count=7.0))
        with pytest.raises(ValueError, match="'null_count' is 7.0"):
            StoredTable(root)

    def test_a_zone_bound_that_is_a_string_is_refused(self, root):
        rewrite(root, lambda doc: zone(doc, 1, "x").update(max="99"))
        with pytest.raises(ValueError, match="not a number"):
            StoredTable(root)

    def test_a_field_of_the_wrong_shape_is_a_value_error(self, root):
        rewrite(root, lambda doc: doc.update(partitions=7))
        with pytest.raises(ValueError, match="malformed"):
            StoredTable(root)

    def test_column_files_that_are_no_mapping_are_a_value_error(self, root):
        rewrite(root, lambda doc: doc["columns"][0].update(files=[1, 2]))
        with pytest.raises(ValueError, match="malformed"):
            StoredTable(root)

    def test_zones_that_are_no_mapping_are_a_value_error(self, root):
        rewrite(root, lambda doc: doc["partitions"][0].update(zones=[1, 2]))
        with pytest.raises(ValueError, match="not a mapping"):
            StoredTable(root)


def test_a_document_that_is_no_object_is_refused(root):
    (root / MANIFEST_NAME).write_text("[1, 2, 3]")
    with pytest.raises(ValueError, match="not a blaeu.store manifest"):
        StoredTable(root)


class TestChecksum:
    def test_every_writer_seals_what_it_writes(self, root, tmp_path):
        csv = tmp_path / "rows.csv"
        csv.write_text("x,c\n1.5,a\n,b\n", encoding="utf-8")
        ingested = tmp_path / "ingested"
        ingest_csv(csv, ingested, partition_rows=2)
        stores = {"write_store": root, "ingest_csv": ingested}
        append_csv(csv, ingested)
        repartition(root, 30)
        for writer, store in stores.items():
            doc = json.loads((store / MANIFEST_NAME).read_text())
            assert reseal(doc)["checksum"] == doc["checksum"], writer
        assert StoreManifest.load(ingested).version == 2
        assert [p.rows for p in StoreManifest.load(root).partitions][0] == 30

    def test_an_edit_after_writing_is_refused(self, root):
        path = root / MANIFEST_NAME
        doc = json.loads(path.read_text())
        zone(doc, 3, "x")["max"] = 160.0  # consistent, and a lie
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="does not match its checksum"):
            StoredTable(root)

    def test_layout_and_key_order_do_not_matter(self, root):
        path = root / MANIFEST_NAME
        doc = json.loads(path.read_text())
        path.write_text(json.dumps(dict(reversed(list(doc.items())))))
        assert StoredTable(root).n_rows == N_ROWS

    def test_a_lie_without_a_checksum_is_still_refused(self, root):
        path = root / MANIFEST_NAME
        doc = json.loads(path.read_text())
        del doc["checksum"]
        zone(doc, 2, "x")["null_count"] = 60
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="60 nulls in a partition of 50"):
            StoredTable(root)

    def test_a_manifest_without_one_loads_unchecked(self, root):
        path = root / MANIFEST_NAME
        doc = json.loads(path.read_text())
        del doc["checksum"]
        path.write_text(json.dumps(doc))
        assert StoreManifest.load(root).n_rows == N_ROWS


class TestInCode:
    """The same contract holds for manifests built in code."""

    def test_a_manifest_with_a_zone_of_no_column_cannot_be_built(self, root):
        manifest = StoreManifest.load(root)
        first = manifest.partitions[0]
        lying = PartitionMeta(
            first.start, first.stop, zones={**first.zones, "y": ColumnZone(0)}
        )
        with pytest.raises(ValueError, match="names no manifest column"):
            dataclasses.replace(
                manifest, partitions=(lying, *manifest.partitions[1:])
            )

    def test_a_zone_with_one_bound_cannot_be_built(self):
        with pytest.raises(ValueError, match="both bounds or with neither"):
            ColumnZone(null_count=0, min=1.0)

    def test_a_partition_with_more_nulls_than_rows_cannot_be_built(self):
        with pytest.raises(ValueError, match="3 nulls in a partition of 2"):
            PartitionMeta(0, 2, zones={"x": ColumnZone(null_count=3)})

    def test_a_failed_save_keeps_the_old_manifest_and_no_tmp(
        self, root, monkeypatch
    ):
        before = (root / MANIFEST_NAME).read_bytes()
        manifest = StoreManifest.load(root)

        def no_room(src, dst):
            raise OSError("no space left on device")

        monkeypatch.setattr("repro.store.format.os.replace", no_room)
        with pytest.raises(OSError, match="no space"):
            manifest.save(root)
        assert (root / MANIFEST_NAME).read_bytes() == before
        assert sorted(p.name for p in root.iterdir()) == [
            "columns",
            MANIFEST_NAME,
            "priority.bin",
        ]


# ----------------------------------------------------------------------
# Mutations
# ----------------------------------------------------------------------

#: What a rejected manifest may raise (``StoreReadError`` is an OSError).
TYPED = (ValueError, KeyError, OSError)

#: One scan per kind of zone reasoning: numeric bounds, null counts and
#: a categorical column under a disjunction.
PREDICATES = (
    Comparison("x", ">", 50.0),
    IsMissing("x"),
    Or((Comparison("c", "==", "a"), Comparison("x", "<=", 20.0))),
)


def _mutant_table() -> Table:
    rng = np.random.default_rng(5)
    x = np.arange(200, dtype=np.float64)
    x[rng.random(200) < 0.15] = np.nan
    labels = [("a", "b", None)[i] for i in rng.integers(0, 3, 200)]
    return Table(
        "mutants",
        [NumericColumn("x", x), CategoricalColumn.from_labels("c", labels)],
    )


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    """The store, its original manifest bytes and the original masks."""
    root = tmp_path_factory.mktemp("mutations") / "s"
    write_store(_mutant_table(), root, chunk_rows=16, partition_rows=50)
    original = (root / MANIFEST_NAME).read_bytes()
    stored = StoredTable(root)
    return root, original, [stored.scan_mask(p) for p in PREDICATES]


def _wrong_answers(store, mutants) -> list[str]:
    """The mutants that opened and scanned differently, by name."""
    root, original, expected = store
    path = root / MANIFEST_NAME
    wrong = []
    try:
        for name, blob in mutants:
            path.write_bytes(blob)
            try:
                stored = StoredTable(root)
                masks = [stored.scan_mask(p) for p in PREDICATES]
            except TYPED:
                continue
            if not all(map(np.array_equal, masks, expected)):
                wrong.append(name)
    finally:
        path.write_bytes(original)
    return wrong


def test_truncations(store):
    _, original, _ = store
    mutants = [(f"first {n} bytes", original[:n]) for n in range(len(original))]
    assert _wrong_answers(store, mutants) == []


def test_bit_flips(store):
    _, original, _ = store
    rng = random.Random(11)
    mutants = []
    for offset in range(len(original)):
        bit = rng.randrange(8)
        blob = bytearray(original)
        blob[offset] ^= 1 << bit
        mutants.append((f"bit {bit} of byte {offset}", bytes(blob)))
    assert _wrong_answers(store, mutants) == []


def test_splices(store):
    _, original, _ = store
    rng = random.Random(12)
    mutants = []
    for _ in range(400):
        start = rng.randrange(len(original))
        stop = min(len(original), start + rng.randrange(1, 40))
        at = rng.randrange(len(original))
        piece = original[start:stop]
        blob = original[:at] + piece + original[at:]
        mutants.append((f"bytes {start}:{stop} inserted at {at}", blob))
    assert _wrong_answers(store, mutants) == []


def test_duplicated_lines(store):
    _, original, _ = store
    lines = original.splitlines(keepends=True)
    mutants = [
        (f"line {i} twice", b"".join(lines[: i + 1] + lines[i:]))
        for i in range(len(lines))
    ]
    assert _wrong_answers(store, mutants) == []


def _fields(node, path=()):
    """Every ``(path, value)`` below ``node``, containers included."""
    items = (
        node.items() if isinstance(node, dict)
        else enumerate(node) if isinstance(node, list)
        else ()
    )
    for key, value in items:
        yield path + (key,), value
        yield from _fields(value, path + (key,))


def _replaced(doc, path, value):
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def test_fields_of_another_type(store):
    """Every field takes every other JSON type, and the checksum is
    resealed — a faulty writer, not a corrupted disk."""
    _, original, _ = store
    doc = json.loads(original)
    doc.pop("checksum", None)
    others = ["50", 50, 50.5, True, None, [], {}]
    mutants = [
        (f"{path} = {other!r}", json.dumps(reseal(_replaced(doc, path, other))))
        for path, value in _fields(doc)
        for other in others
        if type(other) is not type(value)
    ]
    assert len(mutants) > 200
    assert _wrong_answers(store, [(n, m.encode()) for n, m in mutants]) == []
