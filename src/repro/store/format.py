"""The on-disk layout of a column store: manifest + raw column files.

A store is a directory::

    <root>/
      manifest.json            schema, row count, chunking, fingerprint
      priority.bin             per-row sampling priority (int64 permutation)
      columns/
        c00000.values.bin      numeric column: float64 values (NaN at missing)
        c00000.mask.bin        bool missing mask (authoritative, like Column)
        c00001.codes.bin       categorical column: int32 codes (-1 = missing)
        c00001.mask.bin        bool missing mask (== codes -1, precomputed)
        c00001.categories.json category list, first-appearance order

Column files are header-less little-endian binaries — one
``np.memmap``/``readinto`` call away from an array, with no parsing
and no row-group framing.  The manifest carries everything else:

``fingerprint``
    The table's *content* hash, computed once at write time with exactly
    the algorithm of :meth:`repro.table.table.Table.fingerprint` — so a
    store-backed table and its in-memory twin share cache keys, and
    reading the fingerprint back is O(1) instead of an O(data) re-hash.
``chunk_rows``
    The ingestion chunk size, reused as the default scan granularity.
``priority_seed``
    Seed of the persisted per-row priority permutation (``priority.bin``),
    read only by :meth:`~repro.store.stored.StoredTable.top_k_sample`.
``partitions``
    Contiguous row ranges over the column files, each carrying a *zone
    map* — per-column min/max over present values plus a null count —
    so scans can prove a partition cannot match a predicate and skip
    its IO entirely (the row-group design of Parquet/Hillview, kept
    logical: partitions share the single per-column files, so the
    format version and mmap story are unchanged).  Manifests written
    before partitioning load as one implicit partition with no zones.
``version`` / ``previous_fingerprint``
    Ingest lineage: ``version`` counts the ingests that produced the
    store (1 for a fresh ingest, +1 per append) and
    ``previous_fingerprint`` records the content hash the latest append
    extended, so cache owners can tell an append apart from unrelated
    data.
``checksum``
    SHA-256 of every other field, canonically encoded: a manifest whose
    bytes changed after it was written fails to load instead of
    steering scans by a corrupted zone or file path.  Manifests written
    without one load unchecked.

Loading validates the rest too.  Every integer field must be a JSON
integer, and every zone must agree with its partition and column: ``0
≤ null_count ≤ rows``; a numeric zone has ``min`` and ``max`` exactly
when a value is present (``null_count < rows``), with ``min ≤ max`` and
neither NaN; a categorical zone has neither; and a zone names a
manifest column.  A zone that lies makes a scan skip rows that match,
so a lying manifest raises :class:`ValueError` rather than returning a
wrong count.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Iterator

import numpy as np

from repro.table.column import CategoricalColumn, NumericColumn
from repro.table.table import DEFAULT_CHUNK_ROWS, Table

__all__ = [
    "CODES_DTYPE",
    "DEFAULT_CHUNK_ROWS",
    "DEFAULT_PARTITION_ROWS",
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "MANIFEST_NAME",
    "MASK_DTYPE",
    "PRIORITY_DTYPE",
    "PRIORITY_FILE",
    "VALUES_DTYPE",
    "ChunkReader",
    "ColumnMeta",
    "ColumnZone",
    "PartitionMeta",
    "StoreManifest",
    "StoreReadError",
    "StreamingFingerprint",
    "categorical_zone",
    "numeric_zone",
    "partition_spans",
    "write_store",
]

FORMAT_NAME = "blaeu.store"
FORMAT_VERSION = 1
MANIFEST_NAME = "manifest.json"
PRIORITY_FILE = "priority.bin"

#: Default rows per range partition (16 ingestion chunks at the default
#: chunk size): large enough that zone maps stay a rounding error of the
#: manifest, small enough that a selective predicate can skip most of a
#: 100M-row table.
DEFAULT_PARTITION_ROWS = 1_048_576

VALUES_DTYPE = "<f8"
CODES_DTYPE = "<i4"
MASK_DTYPE = "|b1"
PRIORITY_DTYPE = "<i8"

KIND_NUMERIC = "numeric"
KIND_CATEGORICAL = "categorical"


@dataclass(frozen=True)
class ColumnMeta:
    """One column's entry in the manifest.

    ``files`` maps roles to root-relative paths: ``values``/``mask`` for
    numeric columns, ``codes``/``mask``/``categories`` for categorical.
    """

    name: str
    kind: str
    files: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in (KIND_NUMERIC, KIND_CATEGORICAL):
            raise ValueError(f"unknown column kind {self.kind!r}")
        roles = (
            ("values", "mask")
            if self.kind == KIND_NUMERIC
            else ("codes", "mask", "categories")
        )
        missing = [role for role in roles if role not in self.files]
        if missing:
            raise ValueError(
                f"column {self.name!r} manifest entry lacks files for {missing}"
            )

    def to_dict(self) -> dict[str, object]:
        return {"name": self.name, "kind": self.kind, "files": dict(self.files)}

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "ColumnMeta":
        files = dict(payload["files"])  # type: ignore[arg-type]
        return cls(
            name=str(payload["name"]),
            kind=str(payload["kind"]),
            files={str(k): str(v) for k, v in files.items()},
        )


@dataclass(frozen=True)
class ColumnZone:
    """One column's summary over one partition's rows.

    ``min``/``max`` span the *present* values of a numeric column and
    are ``None`` for categorical columns (codes carry no order) and for
    partitions with no present value at all.  ``null_count`` counts the
    missing cells — enough to prove ``IS NULL`` (and, at
    ``null_count == rows``, any value predicate) empty.
    """

    null_count: int
    min: float | None = None
    max: float | None = None

    def __post_init__(self) -> None:
        if self.null_count < 0:
            raise ValueError(f"zone null_count {self.null_count} is negative")
        if (self.min is None) != (self.max is None):
            raise ValueError(
                f"zone has min {self.min!r} but max {self.max!r}: a zone "
                "spans present values with both bounds or with neither"
            )
        if self.min is not None and not self.min <= self.max:  # NaN fails too
            raise ValueError(f"zone min {self.min!r} > max {self.max!r}")

    def to_dict(self) -> dict[str, object]:
        payload: dict[str, object] = {"null_count": self.null_count}
        if self.min is not None:
            payload["min"] = self.min
            payload["max"] = self.max
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "ColumnZone":
        bounds = [payload.get("min"), payload.get("max")]
        for bound in bounds:
            if bound is not None and (
                isinstance(bound, bool) or not isinstance(bound, (int, float))
            ):
                raise ValueError(f"zone bound {bound!r} is not a number")
        minimum, maximum = (
            None if bound is None else float(bound) for bound in bounds
        )
        return cls(
            null_count=_json_int(payload, "null_count"),
            min=minimum,
            max=maximum,
        )


@dataclass(frozen=True)
class PartitionMeta:
    """One contiguous row range of the store, with its zone maps.

    Partitions are *logical*: they index into the same per-column files
    (rows ``[start, stop)``), so repartitioning rewrites only the
    manifest.  ``zones`` maps column names to :class:`ColumnZone`; an
    empty mapping (the implicit partition of a pre-partitioning store)
    is never pruned.
    """

    start: int
    stop: int
    zones: dict[str, ColumnZone] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.start < 0 or self.stop < self.start:
            raise ValueError(
                f"invalid partition range [{self.start}, {self.stop})"
            )
        for name, zone in self.zones.items():
            if zone.null_count > self.rows:
                raise ValueError(
                    f"zone of {name!r} counts {zone.null_count} nulls in a "
                    f"partition of {self.rows} rows"
                )

    @property
    def rows(self) -> int:
        return self.stop - self.start

    def to_dict(self) -> dict[str, object]:
        return {
            "start": self.start,
            "stop": self.stop,
            "zones": {
                name: zone.to_dict() for name, zone in self.zones.items()
            },
        }

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "PartitionMeta":
        zones = payload.get("zones") or {}
        if not isinstance(zones, dict) or not all(
            isinstance(zone, dict) for zone in zones.values()
        ):
            raise ValueError(f"partition zones {zones!r} are not a mapping")
        return cls(
            start=_json_int(payload, "start"),
            stop=_json_int(payload, "stop"),
            zones={
                str(name): ColumnZone.from_dict(zone)
                for name, zone in zones.items()
            },
        )


def partition_spans(
    n_rows: int, partition_rows: int, start: int = 0
) -> list[tuple[int, int]]:
    """The ``[start, stop)`` ranges tiling ``[start, n_rows)``."""
    if partition_rows < 1:
        raise ValueError(
            f"partition_rows must be positive, got {partition_rows}"
        )
    return [
        (lo, min(lo + partition_rows, n_rows))
        for lo in range(start, n_rows, partition_rows)
    ]


def numeric_zone(values: np.ndarray, mask: np.ndarray) -> ColumnZone:
    """The zone map of one numeric partition slice (mask authoritative)."""
    null_count = int(np.count_nonzero(mask))
    present = values[~np.asarray(mask, dtype=bool)]
    if present.size == 0:
        return ColumnZone(null_count=null_count)
    return ColumnZone(
        null_count=null_count,
        min=float(present.min()),
        max=float(present.max()),
    )


def categorical_zone(codes: np.ndarray) -> ColumnZone:
    """The zone map of one categorical partition slice (codes < 0 = null)."""
    return ColumnZone(null_count=int(np.count_nonzero(codes < 0)))


@dataclass(frozen=True)
class StoreManifest:
    """The store's schema + provenance document (``manifest.json``)."""

    table: str
    n_rows: int
    chunk_rows: int
    fingerprint: str
    columns: tuple[ColumnMeta, ...]
    priority_seed: int = 0
    priority_file: str = PRIORITY_FILE
    format_version: int = FORMAT_VERSION
    partitions: tuple[PartitionMeta, ...] = ()
    version: int = 1
    previous_fingerprint: str | None = None

    def __post_init__(self) -> None:
        if not self.table:
            raise ValueError("store manifest needs a table name")
        if self.n_rows < 0:
            raise ValueError("n_rows must be non-negative")
        if self.chunk_rows < 1:
            raise ValueError("chunk_rows must be positive")
        if not self.columns:
            raise ValueError("a store must have at least one column")
        names = [meta.name for meta in self.columns]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate column names in manifest: {names}")
        if self.version < 1:
            raise ValueError("manifest version must be >= 1")
        if self.partitions:
            cursor = 0
            for partition in self.partitions:
                if partition.start != cursor:
                    raise ValueError(
                        "partitions must tile the row range contiguously; "
                        f"expected start {cursor}, got {partition.start}"
                    )
                cursor = partition.stop
            if cursor != self.n_rows:
                raise ValueError(
                    f"partitions cover {cursor} rows of {self.n_rows}"
                )
        kinds = {meta.name: meta.kind for meta in self.columns}
        for partition in self.partitions:
            for name, zone in partition.zones.items():
                _check_zone(name, zone, kinds.get(name), partition.rows)

    def effective_partitions(self) -> tuple[PartitionMeta, ...]:
        """The partition list, or the implicit whole-table partition.

        Backward compatibility contract: a manifest without a
        ``partitions`` section behaves as one zone-less partition
        spanning every row — nothing is ever pruned, nothing needs a
        migration.
        """
        if self.partitions:
            return self.partitions
        if self.n_rows == 0:
            return ()
        return (PartitionMeta(start=0, stop=self.n_rows),)

    def column(self, name: str) -> ColumnMeta:
        """The metadata of the column called ``name``."""
        for meta in self.columns:
            if meta.name == name:
                return meta
        raise KeyError(
            f"store for table {self.table!r} has no column {name!r}; "
            f"available: {[m.name for m in self.columns]}"
        )

    def to_dict(self) -> dict[str, object]:
        payload: dict[str, object] = {
            "format": FORMAT_NAME,
            "format_version": self.format_version,
            "table": self.table,
            "n_rows": self.n_rows,
            "chunk_rows": self.chunk_rows,
            "fingerprint": self.fingerprint,
            "priority_seed": self.priority_seed,
            "priority_file": self.priority_file,
            "columns": [meta.to_dict() for meta in self.columns],
            "version": self.version,
        }
        if self.partitions:
            payload["partitions"] = [
                partition.to_dict() for partition in self.partitions
            ]
        if self.previous_fingerprint is not None:
            payload["previous_fingerprint"] = self.previous_fingerprint
        return payload

    def save(self, root: str | Path) -> Path:
        """Write ``manifest.json`` atomically (tmp file + rename), with
        its checksum; a failed write leaves no tmp file behind."""
        root = Path(root)
        path = root / MANIFEST_NAME
        tmp = root / (MANIFEST_NAME + ".tmp")
        payload = self.to_dict()
        payload["checksum"] = _checksum(payload)
        try:
            tmp.write_text(
                json.dumps(payload, indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        return path

    @classmethod
    def load(cls, root: str | Path) -> "StoreManifest":
        """Read and validate the manifest under ``root``."""
        path = Path(root) / MANIFEST_NAME
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise FileNotFoundError(
                f"{path} does not exist; is {root!r} a blaeu store directory?"
            ) from None
        if not isinstance(payload, dict) or payload.get("format") != FORMAT_NAME:
            found = payload.get("format") if isinstance(payload, dict) else None
            raise ValueError(
                f"{path} is not a {FORMAT_NAME} manifest (format={found!r})"
            )
        version = _json_int(payload, "format_version", 0)
        if version != FORMAT_VERSION:
            raise ValueError(
                f"unsupported store format_version {version} "
                f"(this build reads {FORMAT_VERSION})"
            )
        if "checksum" in payload:
            recorded = payload.pop("checksum")
            if recorded != _checksum(payload):
                raise ValueError(
                    f"{path} does not match its checksum: the manifest "
                    "changed after it was written"
                )
        try:
            return cls(
                table=str(payload["table"]),
                n_rows=_json_int(payload, "n_rows"),
                chunk_rows=_json_int(payload, "chunk_rows"),
                fingerprint=str(payload["fingerprint"]),
                columns=tuple(
                    ColumnMeta.from_dict(entry) for entry in payload["columns"]
                ),
                priority_seed=_json_int(payload, "priority_seed", 0),
                priority_file=str(payload.get("priority_file", PRIORITY_FILE)),
                format_version=version,
                partitions=tuple(
                    PartitionMeta.from_dict(entry)
                    for entry in payload.get("partitions", ())
                ),
                version=_json_int(payload, "version", 1),
                previous_fingerprint=(
                    str(payload["previous_fingerprint"])
                    if payload.get("previous_fingerprint") is not None
                    else None
                ),
            )
        except (AttributeError, TypeError) as error:
            # A field of the wrong JSON shape (a list for a mapping,
            # a number for a list) is as malformed as a wrong type.
            raise ValueError(f"{path} is malformed: {error}") from error


def _json_int(
    payload: dict[str, object], key: str, default: int | None = None
) -> int:
    """The integer field ``key`` of a manifest document (``default``
    when absent and optional); a float, string or bool is refused."""
    if key not in payload and default is not None:
        return default
    value = payload[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"manifest field {key!r} is {value!r}, not an integer")
    return value


def _checksum(payload: dict[str, object]) -> str:
    """SHA-256 of a manifest document, canonically encoded."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _check_zone(
    name: str, zone: ColumnZone, kind: str | None, rows: int
) -> None:
    """Refuse a zone that contradicts its column or its partition."""
    if kind is None:
        raise ValueError(f"a partition zone names no manifest column: {name!r}")
    if kind == KIND_CATEGORICAL and zone.min is not None:
        raise ValueError(
            f"categorical column {name!r} has a zone with min/max: "
            "codes carry no order"
        )
    if kind == KIND_NUMERIC and (zone.min is None) != (zone.null_count == rows):
        raise ValueError(
            f"numeric zone of {name!r} has min {zone.min!r} with "
            f"{zone.null_count} of {rows} rows null: bounds exist exactly "
            "when a value is present"
        )


def column_file_stem(position: int) -> str:
    """Root-relative stem of the files backing column ``position``."""
    return f"columns/c{position:05d}"


class StoreReadError(OSError):
    """A column file gave fewer bytes than the manifest promises."""


class ChunkReader:
    """Chunk reads of a store's raw column files, for the length of one scan.

    A file is opened at its first read and closed by :meth:`close` (the
    end of the ``with`` block), so a scan opens each file it needs once.
    Every read is a ``seek`` + ``readinto`` whose byte count is checked:
    a file truncated under an open table raises :class:`StoreReadError`
    instead of serving stale bytes.

    All the chunks of one file land in one array, and :meth:`all_false`
    hands out one shared mask: what a read returns is valid until the
    next read of the same file, and a scan's resident memory is one
    chunk per file.
    """

    def __init__(self, root: Path) -> None:
        self._root = root
        self._files: dict[str, BinaryIO] = {}
        self._buffers: dict[str, np.ndarray] = {}
        self._all_false = np.zeros(0, dtype=bool)

    def __enter__(self) -> "ChunkReader":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Close every file this reader opened."""
        files, self._files = self._files, {}
        for handle in files.values():
            handle.close()

    def read(self, relative: str, dtype: str, start: int, stop: int) -> np.ndarray:
        """Rows ``[start, stop)`` of the raw column file ``relative``."""
        count = stop - start
        handle = self._files.get(relative)
        if handle is None:
            handle = self._files[relative] = open(self._root / relative, "rb")
        buffer = self._buffers.get(relative)
        if buffer is None or buffer.shape[0] < count:
            buffer = self._buffers[relative] = np.empty(count, dtype=dtype)
        out = buffer[:count]
        offset = start * out.itemsize
        handle.seek(offset)
        got = handle.readinto(out)
        if got != out.nbytes:
            raise StoreReadError(
                f"store file {relative!r} under {str(self._root)!r} gave "
                f"{got} of the {out.nbytes} bytes of rows [{start}, {stop}) "
                f"at offset {offset}; was it truncated under an open table?"
            )
        return out

    def all_false(self, count: int) -> np.ndarray:
        """A read-only all-``False`` mask of ``count`` cells."""
        if self._all_false.shape[0] < count:
            self._all_false = np.zeros(count, dtype=bool)
            self._all_false.setflags(write=False)
        return self._all_false[:count]


class StreamingFingerprint:
    """Recompute :meth:`Table.fingerprint` from on-disk column files.

    Byte-for-byte the same digest as the in-memory implementation, fed
    chunk-wise — the ingester calls this once at finalize so opening the
    store later never has to hash column data again.
    """

    def __init__(self, n_rows: int, chunk_rows: int = DEFAULT_CHUNK_ROWS) -> None:
        self._n_rows = n_rows
        self._chunk_rows = chunk_rows
        self._digest = hashlib.sha256()
        self._digest.update(f"blaeu.table/1:{n_rows}".encode())

    def _preamble(self, name: str, kind: str) -> None:
        self._digest.update(b"\x00col\x00")
        self._digest.update(name.encode("utf-8"))
        self._digest.update(b"\x00")
        self._digest.update(kind.encode("ascii"))
        self._digest.update(b"\x00")

    def add_numeric(self, name: str, values_path: Path, mask_path: Path) -> None:
        """Hash one numeric column from its values + mask files."""
        self._preamble(name, KIND_NUMERIC)
        with ChunkReader(values_path.parent) as reader:
            for values, mask in zip(
                self._chunks(reader, values_path, VALUES_DTYPE),
                self._chunks(reader, mask_path, MASK_DTYPE),
            ):
                self._digest.update(np.where(mask, 0.0, values).tobytes())
        self._hash_mask(mask_path)

    def add_categorical(
        self,
        name: str,
        codes_path: Path,
        mask_path: Path,
        categories: tuple[str, ...],
    ) -> None:
        """Hash one categorical column from its codes file + category list."""
        self._preamble(name, KIND_CATEGORICAL)
        with ChunkReader(codes_path.parent) as reader:
            for codes in self._chunks(reader, codes_path, CODES_DTYPE):
                self._digest.update(codes.tobytes())
        self._digest.update(len(categories).to_bytes(4, "big"))
        for category in categories:
            encoded = category.encode("utf-8")
            self._digest.update(len(encoded).to_bytes(4, "big"))
            self._digest.update(encoded)
        self._hash_mask(mask_path)

    def _hash_mask(self, mask_path: Path) -> None:
        with ChunkReader(mask_path.parent) as reader:
            for mask in self._chunks(reader, mask_path, MASK_DTYPE):
                self._digest.update(mask.tobytes())

    def _chunks(
        self, reader: ChunkReader, path: Path, dtype: str
    ) -> Iterator[np.ndarray]:
        """The file at ``path`` in chunks of ``chunk_rows`` items, through
        ``reader`` (rooted at its directory): a short file raises."""
        for start in range(0, self._n_rows, self._chunk_rows):
            stop = min(start + self._chunk_rows, self._n_rows)
            yield reader.read(path.name, dtype, start, stop)

    def hexdigest(self) -> str:
        """The finished digest."""
        return self._digest.hexdigest()


def write_priorities(
    root: Path, n_rows: int, priority_seed: int
) -> None:
    """Materialize the persisted sampling-priority column."""
    rng = np.random.default_rng(priority_seed)
    priorities = rng.permutation(n_rows).astype(PRIORITY_DTYPE)
    priorities.tofile(root / PRIORITY_FILE)


def write_store(
    table: Table,
    root: str | Path,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    priority_seed: int = 0,
    partition_rows: int = DEFAULT_PARTITION_ROWS,
) -> StoreManifest:
    """Materialize an in-memory :class:`Table` as a store directory.

    The complement of ``blaeu ingest`` for data that already lives in
    memory (tests, benchmarks, migrating a registered table out of RAM).
    The manifest fingerprint is the table's own
    :meth:`~repro.table.table.Table.fingerprint`, so the store-backed
    twin shares cache identity with its source.  ``partition_rows``
    sets the range-partition size whose zone maps scans prune with.
    """
    if chunk_rows < 1:
        raise ValueError(f"chunk_rows must be positive, got {chunk_rows}")
    root = Path(root)
    (root / "columns").mkdir(parents=True, exist_ok=True)

    spans = partition_spans(table.n_rows, partition_rows)
    zones: list[dict[str, ColumnZone]] = [{} for _ in spans]
    metas: list[ColumnMeta] = []
    for position, column in enumerate(table.columns):
        stem = column_file_stem(position)
        if isinstance(column, NumericColumn):
            np.ascontiguousarray(column.values, dtype=VALUES_DTYPE).tofile(
                root / f"{stem}.values.bin"
            )
            np.ascontiguousarray(column.missing_mask, dtype=MASK_DTYPE).tofile(
                root / f"{stem}.mask.bin"
            )
            metas.append(
                ColumnMeta(
                    name=column.name,
                    kind=KIND_NUMERIC,
                    files={
                        "values": f"{stem}.values.bin",
                        "mask": f"{stem}.mask.bin",
                    },
                )
            )
            for index, (start, stop) in enumerate(spans):
                zones[index][column.name] = numeric_zone(
                    column.values[start:stop],
                    column.missing_mask[start:stop],
                )
        elif isinstance(column, CategoricalColumn):
            np.ascontiguousarray(column.codes, dtype=CODES_DTYPE).tofile(
                root / f"{stem}.codes.bin"
            )
            np.ascontiguousarray(column.missing_mask, dtype=MASK_DTYPE).tofile(
                root / f"{stem}.mask.bin"
            )
            categories_file = f"{stem}.categories.json"
            (root / categories_file).write_text(
                json.dumps(list(column.categories)), encoding="utf-8"
            )
            metas.append(
                ColumnMeta(
                    name=column.name,
                    kind=KIND_CATEGORICAL,
                    files={
                        "codes": f"{stem}.codes.bin",
                        "mask": f"{stem}.mask.bin",
                        "categories": categories_file,
                    },
                )
            )
            for index, (start, stop) in enumerate(spans):
                zones[index][column.name] = categorical_zone(
                    column.codes[start:stop]
                )
        else:  # pragma: no cover - Column has exactly two concrete kinds
            raise TypeError(f"unsupported column type {type(column).__name__}")

    write_priorities(root, table.n_rows, priority_seed)
    manifest = StoreManifest(
        table=table.name,
        n_rows=table.n_rows,
        chunk_rows=chunk_rows,
        fingerprint=table.fingerprint(),
        columns=tuple(metas),
        priority_seed=priority_seed,
        partitions=tuple(
            PartitionMeta(start=start, stop=stop, zones=zone)
            for (start, stop), zone in zip(spans, zones)
        ),
    )
    manifest.save(root)
    return manifest
