"""Store-backed tables: the ``Table`` surface over on-disk column files.

A :class:`StoredTable` opens a store directory and exposes the same
relational operations as :class:`~repro.table.table.Table` —
``select`` / ``project`` / ``sample`` / ``take`` — but executes them
against the on-disk column files:

* **predicate pushdown** — ``select`` evaluates its predicate in a
  chunked scan that reads *only the columns the predicate references*,
  then gathers just the matching rows;
* **projection pushdown** — ``project`` returns another store-backed
  view over the restricted column set, copying nothing;
* **sample pushdown** — ``sample`` computes the row indices first and
  gathers only those rows (a few thousand page touches, not a table
  scan), and :meth:`top_k_sample` turns the *persisted* priority column
  into a chunked scan — the multi-scale
  :class:`~repro.table.sampling.SampleCascade` sample without ever
  materializing or redrawing priorities.

Materializing operations (``take``, ``select``, ``sample``, ``head``)
return plain in-memory ``Table`` objects sized by their result.

**One scan surface for both residencies.**  A partition pass consumes
the same surface from a store and from an in-memory table:
``partitions``, :meth:`prune_partitions`, :meth:`chunk_reader`,
:meth:`read_chunk` and ``chunk_rows``.  What differs is defined here: a
store's partitions carry zone maps, and its chunks are ``readinto``
buffers, one reused array per column file, so a scan stays within one
chunk of memory.  What does not differ is not redefined: the pass
primitive :meth:`scan_partitions` (one reader for the whole pass, the
live partitions in order, every chunk a fold step), :meth:`scan_chunks`,
:meth:`scan_mask` and the operations built on them and on gathers
(``select``, ``filter``, ``sample``, ``head``, ``drop``, ``describe``)
are :class:`~repro.table.table.Table`'s own bodies.

**No map outlives the call that made it.**  A gather maps each file it
reads for that gather only: the kernel may fault a whole page-cache
folio for one row (a few thousand scattered rows map most of a column
file), and a map kept open would keep all of it resident for the life
of the table.  A numeric column's mask file is mapped only where the
zone maps do not record ``null_count == 0`` for the gathered rows, and
a categorical column's never (its ``-1`` codes carry missingness).
:meth:`column` hands out read-only memory maps wrapped in the regular
column classes — so every consumer of ``Column`` works unchanged — and
each call maps afresh: the maps live as long as the caller holds the
column.

Opening a table parses the manifest and checks every data file's size
once; every scan afterwards runs on the open table, in this process,
and never re-opens the store.  A scan restricted by a selection mask
(``scan_chunks(where=...)``) reads only the chunks that hold a selected
row.
"""

from __future__ import annotations

import hashlib
import json
import mmap
from bisect import bisect_left, bisect_right
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.obs.metrics import get_metrics
from repro.obs.trace import get_tracer
from repro.resilience.deadline import checkpoint
from repro.resilience.faults import fault_point

from repro.store.format import (
    CODES_DTYPE,
    KIND_CATEGORICAL,
    KIND_NUMERIC,
    MASK_DTYPE,
    PRIORITY_DTYPE,
    VALUES_DTYPE,
    ChunkReader,
    ColumnMeta,
    PartitionMeta,
    StoreManifest,
    StoreReadError,
)
from repro.store.partitions import zone_proves_empty
from repro.table.column import (
    CategoricalColumn,
    Column,
    ColumnKind,
    NumericColumn,
)
from repro.table.predicates import Predicate
from repro.table.sampling import SampleCascade
from repro.table.table import Table

__all__ = ["StoredTable"]

class _MappedNumericColumn(NumericColumn):
    """A ``NumericColumn`` over read-only memory maps (no copies)."""

    def __init__(self, name: str, values: np.ndarray, missing: np.ndarray) -> None:
        # Bypasses NumericColumn.__init__: it would copy the backing
        # arrays, defeating out-of-core access.  The maps are opened
        # read-only, preserving the immutability contract.
        self._name = name
        self._missing = missing
        self._values = values


class _MappedCategoricalColumn(CategoricalColumn):
    """A ``CategoricalColumn`` over read-only memory maps (no copies)."""

    def __init__(
        self,
        name: str,
        codes: np.ndarray,
        missing: np.ndarray,
        dictionary: CategoricalColumn,
    ) -> None:
        self._name = name
        self._missing = missing
        self._codes = codes
        self._categories = dictionary.categories
        self._index = dictionary._index


class StoredTable:
    """A read-only table backed by a store directory.

    Parameters
    ----------
    root:
        The store directory (holding ``manifest.json``).
    manifest:
        Pre-loaded manifest (views share their parent's).
    columns:
        Restrict to these columns, in order (projection view).
    name:
        Override the manifest's table name (like ``Table.rename``).
    scan_jobs:
        Retired: every pass runs serially in this process.  Only
        ``None`` is accepted, and nothing reads it.
    """

    #: Catalog residency marker (in-memory tables report ``"memory"``).
    residency = "store"

    def __init__(
        self,
        root: str | Path,
        manifest: StoreManifest | None = None,
        columns: Sequence[str] | None = None,
        name: str | None = None,
        scan_jobs: None = None,
    ) -> None:
        # The benchmark's frozen store probe still passes
        # ``scan_jobs=None``; ROADMAP item 1(f) drops that argument, and
        # this keyword with it.
        if scan_jobs is not None:
            raise TypeError(
                "scan_jobs is retired (every pass runs serially); "
                f"got {scan_jobs!r}"
            )
        self._root = Path(root)
        self._manifest = (
            manifest if manifest is not None else StoreManifest.load(self._root)
        )
        self._meta = {meta.name: meta for meta in self._manifest.columns}
        full_order = tuple(meta.name for meta in self._manifest.columns)
        if columns is None:
            self._order = full_order
        else:
            missing = [c for c in columns if c not in self._meta]
            if missing:
                raise KeyError(f"unknown columns in projection: {missing}")
            if not columns:
                raise ValueError("projection must keep at least one column")
            self._order = tuple(columns)
        self._name = name or self._manifest.table
        self._dictionaries: dict[str, CategoricalColumn] = {}
        self._partition_starts = [p.start for p in self.partitions]
        self._null_free: dict[str, list[bool]] = {}
        self._data_reads = 0
        self._partitions_skipped = 0
        self._validate_files()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def name(self) -> str:
        """The table's name."""
        return self._name

    @property
    def root(self) -> Path:
        """The store directory."""
        return self._root

    @property
    def manifest(self) -> StoreManifest:
        """The parsed manifest."""
        return self._manifest

    @property
    def n_rows(self) -> int:
        """Number of rows (from the manifest, no scan)."""
        return self._manifest.n_rows

    @property
    def n_columns(self) -> int:
        """Number of (visible) columns."""
        return len(self._order)

    @property
    def column_names(self) -> tuple[str, ...]:
        """Visible column names, in order."""
        return self._order

    @property
    def chunk_rows(self) -> int:
        """Default scan granularity (the ingestion chunk size)."""
        return self._manifest.chunk_rows

    @property
    def data_reads(self) -> int:
        """Count of column-data IO events (map opens + chunk reads).

        Diagnostic: lets tests assert that metadata paths — above all
        :meth:`fingerprint` on the service's cache hot path — perform
        zero data IO.
        """
        return self._data_reads

    @property
    def partitions(self) -> tuple[PartitionMeta, ...]:
        """The store's range partitions (implicit single range when the
        manifest predates partitioning)."""
        return self._manifest.effective_partitions()

    @property
    def partitions_skipped(self) -> int:
        """Partitions this view's scans pruned via zone maps so far."""
        return self._partitions_skipped

    def is_projection(self) -> bool:
        """Whether this view hides columns of the underlying store."""
        return self._order != tuple(m.name for m in self._manifest.columns)

    def fingerprint(self) -> str:
        """The table's content hash, in O(1) from the manifest.

        Equal to the :meth:`Table.fingerprint` of the same data (the
        ingester computes it with the identical algorithm), so cache
        entries are shared between a store-backed table and an in-memory
        twin.  Projection views derive a distinct digest from the
        manifest fingerprint plus the kept columns — still without
        touching column data.
        """
        if not self.is_projection():
            return self._manifest.fingerprint
        payload = self._manifest.fingerprint + "\x00" + "\x00".join(self._order)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def column(self, name: str) -> Column:
        """The column called ``name`` as a memory-mapped ``Column``.

        Each call maps the column's files afresh; the maps close when
        the caller drops the column.
        """
        if name not in self._order:
            raise KeyError(
                f"table {self._name!r} has no column {name!r}; "
                f"available: {list(self._order)}"
            )
        return self._map_column(self._meta[name])

    @property
    def columns(self) -> tuple[Column, ...]:
        """Visible columns, memory-mapped, in order."""
        return tuple(self.column(n) for n in self._order)

    def has_column(self, name: str) -> bool:
        """Whether a (visible) column called ``name`` exists."""
        return name in self._order

    def kind(self, name: str) -> ColumnKind:
        """The kind of column ``name`` (manifest only, no IO)."""
        if name not in self._order:
            raise KeyError(f"table {self._name!r} has no column {name!r}")
        meta = self._meta[name]
        return (
            ColumnKind.NUMERIC
            if meta.kind == KIND_NUMERIC
            else ColumnKind.CATEGORICAL
        )

    def categories(self, name: str) -> tuple[str, ...]:
        """The category list of a categorical column."""
        return self._dictionary(name).categories

    def __len__(self) -> int:
        return self.n_rows

    def __contains__(self, name: object) -> bool:
        return name in self._order

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<StoredTable {self._name!r} rows={self.n_rows} "
            f"columns={self.n_columns} root={str(self._root)!r}>"
        )

    # ------------------------------------------------------------------
    # Relational operations (chunked scans + gathers)
    # ------------------------------------------------------------------

    # What does not depend on where the rows live is ``Table``'s own
    # body, run over this table's scans, gathers and memory maps.
    describe = Table.describe
    drop = Table.drop
    filter = Table.filter
    head = Table.head
    sample = Table.sample
    scan_chunks = Table.scan_chunks
    scan_mask = Table.scan_mask
    scan_partitions = Table.scan_partitions
    select = Table.select

    def rename(self, name: str) -> "StoredTable":
        """The same store-backed view under a different name."""
        return StoredTable(
            self._root,
            manifest=self._manifest,
            columns=self._order if self.is_projection() else None,
            name=name,
        )

    def project(self, names: Sequence[str], name: str | None = None) -> "StoredTable":
        """A store-backed view of the columns called ``names`` (no copy)."""
        return StoredTable(
            self._root,
            manifest=self._manifest,
            columns=tuple(names),
            name=name or self._name,
        )

    def chunk_reader(self) -> ChunkReader:
        """The reader of one scan over this table, for :meth:`scan_chunks`."""
        return ChunkReader(self._root)

    def read_chunk(
        self, reader: ChunkReader, names: Sequence[str], start: int, stop: int
    ) -> Table:
        """Rows ``[start, stop)`` of the ``names`` columns through
        ``reader`` — one chunk of :meth:`scan_chunks`, which checks the
        names and the range.

        The arrays are views of ``reader``'s per-file buffers, valid
        until its next read of the same file.  One reader may serve any
        number of consecutive ranges — :meth:`scan_partitions` spans all
        the partitions of a pass with one — and each needed file is
        opened once for all of them.  A numeric column's mask file is
        read only where a partition's zone map does not record
        ``null_count == 0``.
        """
        # Per-chunk deadline checkpoint + chaos hook: scans over
        # millions of rows abort within one chunk of an expired
        # budget, and the fault harness can fail or slow each read.
        checkpoint("store.chunk")
        fault_point("store.read")
        chunk_columns = [
            self._read_column_chunk(reader, name, start, stop) for name in names
        ]
        get_metrics().increment("blaeu_store_chunk_reads_total")
        return Table(self._name, chunk_columns)

    def prune_partitions(
        self, predicate: Predicate
    ) -> tuple[list[PartitionMeta], int]:
        """The partitions a ``predicate`` scan must read, plus the skip
        count.

        Zone-map pruning: a partition is dropped only when its zones
        *prove* the predicate empty over it, so scanning just the
        survivors (and leaving skipped rows ``False``) reproduces the
        full scan exactly.  Skips are counted on this view and on the
        ``blaeu_store_partitions_skipped_total`` metric.
        """
        kinds = {meta.name: meta.kind for meta in self._manifest.columns}
        live: list[PartitionMeta] = []
        skipped = 0
        for partition in self.partitions:
            if partition.rows and zone_proves_empty(
                predicate, partition, kinds
            ):
                skipped += 1
            else:
                live.append(partition)
        if skipped:
            self._partitions_skipped += skipped
            get_metrics().increment(
                "blaeu_store_partitions_skipped_total", skipped
            )
        return live, skipped

    def take(self, indices: np.ndarray, name: str | None = None) -> Table:
        """Rows at ``indices``, gathered into a plain in-memory table.

        Memory is bounded by the result: each column file is mapped for
        its own gather and closed when it returns (see the module
        docstring), so nothing of the table stays resident afterwards.
        """
        return self.take_columns(self._order, indices, name=name)

    def take_columns(
        self,
        names: Sequence[str],
        indices: np.ndarray,
        name: str | None = None,
    ) -> Table:
        """Rows at ``indices`` of just the ``names`` columns, gathered.

        The combined projection + gather of the graph stage's hot path:
        equivalent to ``project(names).take(indices)`` but without
        constructing (and re-validating) an intermediate view, it maps
        only the named columns' files, each for its own gather.  This is
        how a dependency-graph build reads its sampled rows from a
        million-row store without materializing anything else.
        """
        indices = np.asarray(indices, dtype=np.intp)
        low = int(indices.min(initial=0))
        high = int(indices.max(initial=0))
        if indices.size and (low < 0 or high >= self.n_rows):
            raise IndexError(
                f"row indices out of range for table with {self.n_rows} rows"
            )
        for column_name in names:
            if column_name not in self._order:
                raise KeyError(
                    f"table {self._name!r} has no column {column_name!r}"
                )
        with get_tracer().span("store.gather") as span:
            if span.enabled:
                span.set("rows", int(indices.size))
                span.set("columns", len(names))
            get_metrics().increment("blaeu_store_gathers_total")
            columns = [self._gather(n, indices, low, high + 1) for n in names]
        return Table(name or self._name, columns)

    def row(self, index: int) -> dict[str, object]:
        """Row ``index`` as a column-name → value mapping."""
        if not 0 <= index < self.n_rows:
            raise IndexError(f"row {index} out of range [0, {self.n_rows})")
        return self.take(np.asarray([index])).row(0)

    # ------------------------------------------------------------------
    # Persisted multi-scale sampling
    # ------------------------------------------------------------------

    @property
    def priorities(self) -> np.ndarray:
        """The persisted per-row sampling priorities (a read-only map,
        made afresh on each access)."""
        return self._mmap(self._manifest.priority_file, PRIORITY_DTYPE)

    def cascade(self) -> SampleCascade:
        """The table's :class:`SampleCascade` over the persisted priorities.

        Identical in every process that opens the store — zoom samples
        are stable across restarts and across the service's workers.
        """
        return SampleCascade.from_priorities(self.priorities)

    def top_k_sample(
        self, k: int, chunk_rows: int | None = None
    ) -> np.ndarray:
        """Indices of the ``k`` lowest-priority rows, by one chunked scan.

        Equals ``cascade().sample(k)`` without holding the priority
        column: the persisted priorities are a permutation of
        ``range(n_rows)`` (:func:`~repro.store.format.write_priorities`),
        so the ``k`` lowest are exactly the rows whose priority is below
        ``k``, collected in row order.  Any other count means the file
        is not that permutation, and raises :class:`StoreReadError`.
        """
        if k < 0:
            raise ValueError(f"sample size must be non-negative, got {k}")
        if k == 0:
            return np.empty(0, dtype=np.intp)
        if k >= self.n_rows:
            return np.arange(self.n_rows, dtype=np.intp)
        with get_tracer().span("store.topk_sample") as span:
            step = chunk_rows or self._manifest.chunk_rows
            relative = self._manifest.priority_file
            picked: list[np.ndarray] = []
            chunks = 0
            with self.chunk_reader() as reader:
                for start in range(0, self.n_rows, step):
                    stop = min(start + step, self.n_rows)
                    self._data_reads += 1
                    priority = reader.read(relative, PRIORITY_DTYPE, start, stop)
                    picked.append(np.flatnonzero(priority < k) + start)
                    chunks += 1
            rows = np.concatenate(picked)
            if rows.size != k:
                raise StoreReadError(
                    f"store file {relative!r} under {str(self._root)!r} "
                    f"holds {rows.size} priorities below {k}; a permutation "
                    f"of range({self.n_rows}) holds exactly {k}"
                )
            if span.enabled:
                span.set("k", k)
                span.set("chunks", chunks)
            get_metrics().increment("blaeu_store_topk_scans_total")
            return rows

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _validate_files(self) -> None:
        """Cheap corruption guard: every data file must match ``n_rows``."""
        expectations: list[tuple[str, str]] = [
            (self._manifest.priority_file, PRIORITY_DTYPE)
        ]
        for name in self._order:
            meta = self._meta[name]
            if meta.kind == KIND_NUMERIC:
                expectations.append((meta.files["values"], VALUES_DTYPE))
            else:
                expectations.append((meta.files["codes"], CODES_DTYPE))
            expectations.append((meta.files["mask"], MASK_DTYPE))
        for relative, dtype in expectations:
            path = self._root / relative
            expected = self.n_rows * np.dtype(dtype).itemsize
            try:
                actual = path.stat().st_size
            except FileNotFoundError:
                raise FileNotFoundError(
                    f"store {str(self._root)!r} is missing {relative!r}"
                ) from None
            if actual != expected:
                raise ValueError(
                    f"store file {relative!r} holds {actual} bytes; "
                    f"expected {expected} for {self.n_rows} rows"
                )

    def _mmap(self, relative: str, dtype: str) -> np.ndarray:
        self._data_reads += 1
        if self.n_rows == 0:
            return np.empty(0, dtype=dtype)
        return np.memmap(self._root / relative, dtype=dtype, mode="r")

    def _map_column(self, meta: ColumnMeta) -> Column:
        mask = self._mmap(meta.files["mask"], MASK_DTYPE)
        if meta.kind == KIND_NUMERIC:
            values = self._mmap(meta.files["values"], VALUES_DTYPE)
            return _MappedNumericColumn(meta.name, values, mask)
        codes = self._mmap(meta.files["codes"], CODES_DTYPE)
        return _MappedCategoricalColumn(
            meta.name, codes, mask, self._dictionary(meta.name)
        )

    def _gather(self, name: str, indices: np.ndarray, start: int, stop: int) -> Column:
        """Column ``name`` at ``indices`` (all inside rows ``[start,
        stop)``).

        The files read follow :meth:`_read_column_chunk`: no mask file
        where the zones prove the rows null-free, never a categorical
        column's.
        """
        meta = self._meta[name]
        if meta.kind == KIND_CATEGORICAL:
            codes = self._read_rows(meta.files["codes"], CODES_DTYPE, indices)
            return self._dictionary(name).with_codes(codes)
        values = self._read_rows(meta.files["values"], VALUES_DTYPE, indices)
        if self._zones_record_no_nulls(name, start, stop):
            missing = np.zeros(indices.size, dtype=bool)
        else:
            missing = self._read_rows(meta.files["mask"], MASK_DTYPE, indices)
        return NumericColumn.adopt(name, values, missing)

    def _read_rows(self, relative: str, dtype: str, indices: np.ndarray) -> np.ndarray:
        """Items ``indices`` of the raw column file ``relative``, read
        through a map that is closed before this returns."""
        if not indices.size:
            return np.empty(0, dtype=dtype)
        self._data_reads += 1
        with (
            open(self._root / relative, "rb") as handle,
            mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ) as mapped,
        ):
            return np.frombuffer(mapped, dtype=dtype)[indices]

    def _dictionary(self, name: str) -> CategoricalColumn:
        """A categorical column's dictionary, as a column of no rows.

        Built — the category file parsed, the labels validated, the
        label index made — once per open table; every chunk and map of
        the column shares it (:meth:`CategoricalColumn.with_codes`).
        """
        meta = self._meta[name]
        if meta.kind != KIND_CATEGORICAL:
            raise TypeError(f"column {name!r} is numeric; it has no categories")
        if name not in self._dictionaries:
            path = self._root / meta.files["categories"]
            self._dictionaries[name] = CategoricalColumn(
                name,
                np.empty(0, dtype=np.int32),
                json.loads(path.read_text(encoding="utf-8")),
            )
        return self._dictionaries[name]

    def _zones_record_no_nulls(self, name: str, start: int, stop: int) -> bool:
        """Whether every partition holding a row of ``[start, stop)``
        has a zone for column ``name`` with ``null_count == 0`` (the
        field :func:`~repro.store.partitions.zone_proves_empty` trusts).
        Zone-less partitions prove nothing."""
        proven = self._null_free.get(name)
        if proven is None:
            proven = self._null_free[name] = [
                name in p.zones and p.zones[name].null_count == 0
                for p in self.partitions
            ]
        first = bisect_right(self._partition_starts, start) - 1
        return all(proven[first : bisect_left(self._partition_starts, stop)])

    def _read_column_chunk(
        self, reader: ChunkReader, name: str, start: int, stop: int
    ) -> Column:
        meta = self._meta[name]
        self._data_reads += 1
        if meta.kind == KIND_NUMERIC:
            values = reader.read(meta.files["values"], VALUES_DTYPE, start, stop)
            if self._zones_record_no_nulls(name, start, stop):
                mask = reader.all_false(stop - start)
            else:
                mask = reader.read(meta.files["mask"], MASK_DTYPE, start, stop)
            return NumericColumn.adopt(meta.name, values, mask)
        # The mask file is skipped here: CategoricalColumn rederives
        # missingness from the -1 codes, so reading it would be waste.
        codes = reader.read(meta.files["codes"], CODES_DTYPE, start, stop)
        return self._dictionary(name).with_codes(codes)
