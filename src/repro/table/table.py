"""The relational core: an immutable, column-oriented table.

A :class:`Table` is an ordered collection of equally long
:class:`~repro.table.column.Column` objects.  It supports exactly the
operations Blaeu's engine needs from its DBMS:

* ``select`` — keep the rows matching a predicate,
* ``project`` — keep a subset of columns,
* ``sample`` — uniform random subset of rows (MonetDB's ``SAMPLE``),
* ``take`` — positional row selection (the sampling primitives produce
  index arrays).

All operations return new tables; nothing is mutated in place.

A table is also what a store-backed
:class:`~repro.store.stored.StoredTable` is to a partition pass
(:meth:`Table.scan_partitions`): one implicit, zone-less partition
``[0, n_rows)`` that no predicate prunes, read in chunks that are
zero-copy slices of its columns.  Every selection-proportional pass —
predicate masks, exact counts, highlights, whole-table NMI — therefore
runs one body on both residencies.
"""

from __future__ import annotations

import hashlib
import time
from contextlib import AbstractContextManager, nullcontext
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from repro.obs.metrics import get_metrics
from repro.obs.trace import get_tracer
from repro.resilience.deadline import checkpoint
from repro.table.column import (
    CategoricalColumn,
    Column,
    ColumnKind,
    NumericColumn,
)
from repro.table.predicates import Predicate

if TYPE_CHECKING:  # pragma: no cover - the store layer sits above this one
    from repro.store.format import PartitionMeta

__all__ = ["DEFAULT_CHUNK_ROWS", "Table"]

#: Rows per scan chunk of an in-memory table, and the chunk size a
#: store is ingested and scanned in unless told otherwise.
DEFAULT_CHUNK_ROWS = 65_536


class Table:
    """An immutable column-store table.

    Parameters
    ----------
    name:
        Table name (used in SQL rendering and the catalog).
    columns:
        The columns, all of the same length.  Order is preserved and
        significant (the theme view lists columns in table order).
    """

    __slots__ = ("_name", "_columns", "_order", "_n_rows", "_fingerprint")

    #: Where the rows live (a store-backed table says ``"store"``).
    residency = "memory"

    #: Rows per chunk of :meth:`scan_chunks` unless a pass asks otherwise.
    chunk_rows = DEFAULT_CHUNK_ROWS

    #: Column-data IO events of this table's scans: it reads no file.
    data_reads = 0

    def __init__(self, name: str, columns: Sequence[Column]) -> None:
        if not name:
            raise ValueError("table name must be non-empty")
        if not columns:
            raise ValueError(f"table {name!r} must have at least one column")
        lengths = {len(column) for column in columns}
        if len(lengths) != 1:
            raise ValueError(
                f"columns of table {name!r} have inconsistent lengths: "
                f"{sorted(lengths)}"
            )
        names = [column.name for column in columns]
        if len(set(names)) != len(names):
            duplicates = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate column names: {duplicates}")
        self._name = name
        self._columns = {column.name: column for column in columns}
        self._order = tuple(names)
        self._n_rows = lengths.pop()
        self._fingerprint: str | None = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def name(self) -> str:
        """The table's name."""
        return self._name

    @property
    def n_rows(self) -> int:
        """Number of rows."""
        return self._n_rows

    @property
    def n_columns(self) -> int:
        """Number of columns."""
        return len(self._order)

    @property
    def column_names(self) -> tuple[str, ...]:
        """Column names in table order."""
        return self._order

    @property
    def columns(self) -> tuple[Column, ...]:
        """Columns in table order."""
        return tuple(self._columns[n] for n in self._order)

    def column(self, name: str) -> Column:
        """The column called ``name``; raises ``KeyError`` when absent."""
        try:
            return self._columns[name]
        except KeyError:
            raise KeyError(
                f"table {self._name!r} has no column {name!r}; "
                f"available: {list(self._order)}"
            ) from None

    def has_column(self, name: str) -> bool:
        """Whether a column called ``name`` exists."""
        return name in self._columns

    def kind(self, name: str) -> ColumnKind:
        """The kind of column ``name``."""
        return self.column(name).kind

    def categories(self, name: str) -> tuple[str, ...]:
        """The category list of the categorical column ``name``."""
        column = self.column(name)
        if not isinstance(column, CategoricalColumn):
            raise TypeError(f"column {name!r} is numeric; it has no categories")
        return column.categories

    def fingerprint(self) -> str:
        """A stable content hash over schema and column bytes.

        Two tables with the same columns (names, kinds, order) and the
        same cell values share a fingerprint, regardless of their table
        names — so cached results keyed on the fingerprint survive
        ``rename`` and re-registration.  Computed once, then memoized
        (tables are immutable).
        """
        if self._fingerprint is None:
            digest = hashlib.sha256()
            digest.update(f"blaeu.table/1:{self._n_rows}".encode())
            for column in self.columns:
                digest.update(b"\x00col\x00")
                digest.update(column.name.encode("utf-8"))
                digest.update(b"\x00")
                digest.update(column.kind.value.encode("ascii"))
                digest.update(b"\x00")
                if isinstance(column, NumericColumn):
                    # Zero out missing cells: NaN payload bytes are not
                    # canonical, the mask is hashed separately below.
                    values = np.where(column.missing_mask, 0.0, column.values)
                    digest.update(np.ascontiguousarray(values).tobytes())
                elif isinstance(column, CategoricalColumn):
                    digest.update(
                        np.ascontiguousarray(column.codes).tobytes()
                    )
                    # Length-prefix each category: joining by a
                    # delimiter alone is ambiguous when a category
                    # itself contains the delimiter byte.
                    digest.update(
                        len(column.categories).to_bytes(4, "big")
                    )
                    for category in column.categories:
                        encoded = category.encode("utf-8")
                        digest.update(len(encoded).to_bytes(4, "big"))
                        digest.update(encoded)
                digest.update(
                    np.ascontiguousarray(column.missing_mask).tobytes()
                )
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def __len__(self) -> int:
        return self._n_rows

    def __contains__(self, name: object) -> bool:
        return name in self._columns

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Table {self._name!r} rows={self._n_rows} "
            f"columns={self.n_columns}>"
        )

    # ------------------------------------------------------------------
    # Relational operations
    # ------------------------------------------------------------------

    def select(self, predicate: Predicate, name: str | None = None) -> "Table":
        """Rows matching ``predicate`` (order preserved): the
        :meth:`scan_mask` of the predicate, gathered."""
        return self.filter(self.scan_mask(predicate), name=name)

    def filter(self, mask: np.ndarray, name: str | None = None) -> "Table":
        """Rows where the boolean ``mask`` is ``True``."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape[0] != self.n_rows:
            raise ValueError(
                f"mask length {mask.shape[0]} != table rows {self.n_rows}"
            )
        return self.take(np.flatnonzero(mask), name=name)

    def take(self, indices: np.ndarray, name: str | None = None) -> "Table":
        """Rows at ``indices``, in the given order (may repeat)."""
        indices = np.asarray(indices, dtype=np.intp)
        if indices.size and (
            indices.min(initial=0) < 0 or indices.max(initial=0) >= self._n_rows
        ):
            raise IndexError(
                f"row indices out of range for table with {self._n_rows} rows"
            )
        columns = [column.take(indices) for column in self.columns]
        return Table(name or self._name, columns)

    def project(self, names: Sequence[str], name: str | None = None) -> "Table":
        """The columns called ``names``, in the given order."""
        missing = [n for n in names if n not in self._columns]
        if missing:
            raise KeyError(f"unknown columns in projection: {missing}")
        if not names:
            raise ValueError("projection must keep at least one column")
        columns = [self._columns[n] for n in names]
        return Table(name or self._name, columns)

    def drop(self, names: Sequence[str], name: str | None = None) -> "Table":
        """All columns except ``names``."""
        dropped = set(names)
        kept = [n for n in self.column_names if n not in dropped]
        return self.project(kept, name=name)

    def sample(self, n: int, rng: np.random.Generator) -> "Table":
        """A uniform sample of ``min(n, n_rows)`` distinct rows.

        This is the stand-in for MonetDB's ``SAMPLE`` clause; row order in
        the output follows the original table (MonetDB semantics).  The
        indices are drawn first and only those rows are gathered, so at
        the same ``rng`` state both residencies sample the same rows —
        the bit-identity of store-backed and in-memory map builds rests
        on this.
        """
        from repro.table.sampling import uniform_sample

        indices = uniform_sample(self.n_rows, n, rng)
        return self.take(indices)

    def head(self, n: int = 10) -> "Table":
        """The first ``n`` rows."""
        return self.take(np.arange(min(n, self.n_rows)))

    def take_columns(
        self,
        names: Sequence[str],
        indices: np.ndarray,
        name: str | None = None,
    ) -> "Table":
        """Rows at ``indices`` of just the ``names`` columns, gathered
        (``project(names).take(indices)``)."""
        return self.project(names).take(indices, name=name)

    # ------------------------------------------------------------------
    # Scans: one implicit partition
    # ------------------------------------------------------------------

    @property
    def partitions(self) -> tuple["PartitionMeta", ...]:
        """One zone-less partition over every row, which no predicate
        prunes (the shape of a store written before partitioning)."""
        from repro.store.format import PartitionMeta

        return (PartitionMeta(0, self._n_rows),)

    def prune_partitions(
        self, predicate: Predicate
    ) -> tuple[list["PartitionMeta"], int]:
        """Every partition, none skipped: there are no zone maps."""
        return list(self.partitions), 0

    def chunk_reader(self) -> AbstractContextManager[None]:
        """The reader of one scan: none, the columns are resident."""
        return nullcontext()

    def scan_chunks(
        self,
        reader,
        columns: Sequence[str] | None = None,
        chunk_rows: int | None = None,
        start: int = 0,
        stop: int | None = None,
        where: np.ndarray | None = None,
    ) -> Iterator[tuple[int, int, "Table"]]:
        """Yield ``(start, stop, chunk)`` tables of the ``columns`` (all
        by default) over rows ``[start, stop)`` (all by default), in
        steps of ``chunk_rows`` (default :attr:`chunk_rows`) — the scan
        primitive every pass is built on, on both residencies.

        ``where`` is a boolean mask over the range: a chunk in which it
        selects no row is skipped before anything is read.  ``reader``
        comes from :meth:`chunk_reader` and decides what a chunk's
        arrays are: here views of the resident columns; on a
        :class:`~repro.store.stored.StoredTable` views of the reader's
        per-file buffers, overwritten by the next chunk.  A consumer is
        therefore done with a chunk, or has copied what it keeps, before
        it asks for the next.
        """
        names = tuple(columns) if columns is not None else self.column_names
        for column_name in names:
            if not self.has_column(column_name):
                raise KeyError(
                    f"table {self.name!r} has no column {column_name!r}"
                )
        step = chunk_rows or self.chunk_rows
        if step < 1:
            raise ValueError(f"chunk_rows must be positive, got {step}")
        end = self.n_rows if stop is None else stop
        if not 0 <= start <= end <= self.n_rows:
            raise ValueError(
                f"invalid scan range [{start}, {stop}) for {self.n_rows} rows"
            )
        if where is not None and where.shape != (end - start,):
            raise ValueError(
                f"where mask of shape {where.shape} does not cover the "
                f"{end - start} rows of scan range [{start}, {end})"
            )
        for lo in range(start, end, step):
            hi = min(lo + step, end)
            if where is not None and not where[lo - start : hi - start].any():
                continue
            yield lo, hi, self.read_chunk(reader, names, lo, hi)

    def read_chunk(
        self, reader: None, names: Sequence[str], start: int, stop: int
    ) -> "Table":
        """Rows ``[start, stop)`` of the ``names`` columns — one chunk of
        :meth:`scan_chunks`, which checks the names and the range."""
        return Table(
            self._name, [self._columns[n].slice(start, stop) for n in names]
        )

    def scan_partitions(
        self,
        partitions: Sequence["PartitionMeta"],
        columns: Sequence[str],
        chunk_rows: int | None = None,
    ) -> Iterator[tuple[int, int, "Table", object]]:
        """One partition pass: yield ``(start, stop, chunk, reader)`` for
        the chunks of the ``columns`` over ``partitions``, in order.

        One :meth:`chunk_reader` serves the whole pass (a partition is
        often one chunk, so only a reader that outlives it can reuse a
        file or a buffer), and closes when the pass ends or is
        abandoned.  Each pass feeds one accumulator chunk by chunk, so
        its result is the serial fold over the rows in order: it cannot
        depend on how the rows are cut into partitions and chunks.
        ``reader`` is the pass's reader, for a consumer that reads more
        columns of a chunk (:meth:`read_chunk`) once it has seen the
        first ones.
        """
        with self.chunk_reader() as reader:
            for partition in partitions:
                checkpoint("store.partition")
                for lo, hi, chunk in self.scan_chunks(
                    reader, columns, chunk_rows, partition.start, partition.stop
                ):
                    yield lo, hi, chunk, reader

    def scan_mask(
        self, predicate: Predicate, chunk_rows: int | None = None
    ) -> np.ndarray:
        """Evaluate ``predicate`` over all rows as a chunked scan.

        Predicate pushdown: only the columns the predicate references
        are read, only in the partitions whose zone maps cannot rule
        the predicate out.  Returns a boolean mask of length ``n_rows``,
        bit-identical at every pruning setting and on both residencies.
        """
        needed = tuple(sorted(predicate.columns()))
        if not needed:  # Everything (no predicate references any column)
            return predicate.mask(self)  # type: ignore[arg-type]
        for column_name in needed:
            if not self.has_column(column_name):
                raise KeyError(
                    f"table {self.name!r} has no column {column_name!r}"
                )
        with get_tracer().span("store.scan") as span:
            started = time.perf_counter()
            reads_before = self.data_reads
            live, skipped = self.prune_partitions(predicate)
            out = np.zeros(self.n_rows, dtype=bool)
            chunks = 0
            for lo, hi, chunk, _ in self.scan_partitions(live, needed, chunk_rows):
                out[lo:hi] = predicate.mask(chunk)
                chunks += 1
            metrics = get_metrics()
            metrics.increment("blaeu_store_partitions_scanned_total", len(live))
            if span.enabled:
                span.set("rows", self.n_rows)
                span.set("columns", len(needed))
                span.set("chunks", chunks)
                span.set("partitions", len(live))
                span.set("partitions_skipped", skipped)
                span.set("data_reads", self.data_reads - reads_before)
            metrics.increment("blaeu_store_scans_total")
            metrics.observe(
                "blaeu_store_scan_seconds", time.perf_counter() - started
            )
        return out

    # ------------------------------------------------------------------
    # Row access
    # ------------------------------------------------------------------

    def row(self, index: int) -> dict[str, object]:
        """Row ``index`` as a column-name → value mapping."""
        if not 0 <= index < self._n_rows:
            raise IndexError(f"row {index} out of range [0, {self._n_rows})")
        return {n: self._columns[n].value_at(index) for n in self._order}

    def rows(self) -> Iterator[dict[str, object]]:
        """Iterate over rows as dictionaries (slow path; for tests/export)."""
        for index in range(self._n_rows):
            yield self.row(index)

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------

    def describe(self) -> list[dict[str, object]]:
        """One summary record per column (kind, missing count, stats)."""
        out: list[dict[str, object]] = []
        for column in self.columns:
            record: dict[str, object] = {
                "column": column.name,
                "kind": column.kind.value,
                "missing": column.n_missing,
                "distinct": column.n_distinct(),
            }
            if isinstance(column, NumericColumn):
                record.update(
                    min=column.min(),
                    max=column.max(),
                    mean=column.mean(),
                    std=column.std(),
                )
            else:
                counts = column.value_counts()  # type: ignore[union-attr]
                record["top"] = next(iter(counts), None)
            out.append(record)
        return out
