"""CSV ingestion and export.

Blaeu's architecture (Figure 4) feeds MonetDB from "external DBs and CSV
files".  This module is the CSV path: it parses with the standard library
``csv`` reader and delegates type decisions to
:func:`repro.table.schema.infer_column`.

The parse loop is *chunked*: :class:`CsvChunkReader` yields column-major
blocks of at most ``chunk_rows`` records, and is shared between
:func:`read_csv` (which accumulates the chunks into one in-memory
:class:`~repro.table.table.Table`) and the out-of-core ingester
(:func:`repro.store.ingest.ingest_csv`, which spills each chunk to disk
and never holds the whole file).  Sources may be filesystem paths or open
text file-like objects.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import IO, Iterator, Mapping

from repro.table.column import ColumnKind, NumericColumn
from repro.table.schema import infer_column
from repro.table.table import Table

__all__ = [
    "CsvChunkReader",
    "read_csv",
    "write_csv",
]


class CsvChunkReader:
    """A one-shot, column-major, chunked CSV record reader.

    Parses the header eagerly (available as :attr:`header`) and then
    yields *chunks*: lists with one entry per column, each entry the list
    of that column's raw string cells for at most ``chunk_rows`` records.
    ``chunk_rows=None`` yields a single chunk holding the whole file.

    Record handling matches the historical ``read_csv`` semantics: truly
    empty lines are skipped, a whitespace-only single-field line is
    skipped only for multi-column headers (for a single-column table it
    is a data row holding one missing cell — dropping it would lose
    rows on a write/read round trip), and ragged records raise with
    their record number.
    """

    def __init__(
        self,
        handle: IO[str],
        delimiter: str = ",",
        chunk_rows: int | None = None,
        name: str = "table",
    ) -> None:
        if chunk_rows is not None and chunk_rows < 1:
            raise ValueError(f"chunk_rows must be positive, got {chunk_rows}")
        self._reader = csv.reader(handle, delimiter=delimiter)
        try:
            header = next(self._reader)
        except StopIteration:
            raise ValueError(f"CSV source for table {name!r} is empty") from None
        header = [column_name.strip() for column_name in header]
        if any(not column_name for column_name in header):
            raise ValueError("CSV header contains empty column names")
        self.header: tuple[str, ...] = tuple(header)
        self._chunk_rows = chunk_rows

    def __iter__(self) -> Iterator[list[list[str]]]:
        width = len(self.header)
        chunk: list[list[str]] = [[] for _ in range(width)]
        filled = 0
        for record, row in enumerate(self._reader, start=2):
            if not row:
                continue  # a truly blank line (e.g. a trailing newline)
            if len(row) == 1 and not row[0].strip() and width > 1:
                continue  # stray whitespace line in a multi-column file
            if len(row) != width:
                raise ValueError(
                    f"line {record}: expected {width} fields, got {len(row)}"
                )
            for position, cell in enumerate(row):
                chunk[position].append(cell)
            filled += 1
            if self._chunk_rows is not None and filled >= self._chunk_rows:
                yield chunk
                chunk = [[] for _ in range(width)]
                filled = 0
        if filled:
            yield chunk


def read_csv(
    source: str | Path | IO[str],
    name: str | None = None,
    delimiter: str = ",",
    kinds: Mapping[str, ColumnKind] | None = None,
    chunk_rows: int | None = None,
) -> Table:
    """Load CSV with a header row into a :class:`Table`.

    Parameters
    ----------
    source:
        A filesystem path, or an open *text* file-like object (anything
        with ``read``); file-likes are not closed by this function.
    name:
        Table name; defaults to the file stem (``"table"`` for
        file-like sources).
    delimiter:
        Field separator.
    kinds:
        Optional per-column kind overrides (skips inference).
    chunk_rows:
        Parse in blocks of this many records instead of slurping the
        file — the intermediate row buffers stay bounded (the resulting
        table is in-memory either way; for out-of-core loading see
        ``blaeu ingest`` / :func:`repro.store.ingest.ingest_csv`, which
        shares this parse loop).
    """
    if hasattr(source, "read"):
        return _read(source, name or "table", delimiter, kinds, chunk_rows)
    path = Path(source)  # type: ignore[arg-type]
    with path.open(newline="", encoding="utf-8") as handle:
        return _read(handle, name or path.stem, delimiter, kinds, chunk_rows)


def _read(
    handle: IO[str],
    name: str,
    delimiter: str,
    kinds: Mapping[str, ColumnKind] | None,
    chunk_rows: int | None,
) -> Table:
    reader = CsvChunkReader(
        handle, delimiter=delimiter, chunk_rows=chunk_rows, name=name
    )
    cells: list[list[str]] = [[] for _ in reader.header]
    for chunk in reader:
        for position, column_cells in enumerate(chunk):
            cells[position].extend(column_cells)

    columns = []
    for position, column_name in enumerate(reader.header):
        forced = kinds.get(column_name) if kinds else None
        columns.append(infer_column(column_name, cells[position], forced))
    return Table(name, columns)


def write_csv(table: Table, path: str | Path, delimiter: str = ",") -> None:
    """Write ``table`` to ``path`` with a header row; missing cells empty."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        _write(table, handle, delimiter)


def _write(table: Table, handle: IO[str], delimiter: str) -> None:
    writer = csv.writer(handle, delimiter=delimiter)
    # In a single-column table a missing cell would render as a blank
    # *line*, which readers cannot tell from a trailing newline — the row
    # would silently vanish on the way back in.  Quote those rows (and
    # only those) so they survive the round trip.
    quoted_writer = csv.writer(handle, delimiter=delimiter, quoting=csv.QUOTE_ALL)
    writer.writerow(table.column_names)
    columns = table.columns
    for index in range(table.n_rows):
        row: list[str] = []
        for column in columns:
            value = column.value_at(index)
            if value is None:
                row.append("")
            elif isinstance(column, NumericColumn):
                row.append(_format_cell(float(value)))
            else:
                row.append(str(value))
        if len(row) == 1 and row[0] == "":
            quoted_writer.writerow(row)
        else:
            writer.writerow(row)


def _format_cell(value: float) -> str:
    """Format a float without losing round-trip precision."""
    if not math.isfinite(value):
        # repr gives 'inf' / '-inf', which _parse_float reads back
        # exactly (missing cells never reach here: they render as "").
        return repr(value)
    if value == 0.0 and math.copysign(1.0, value) < 0.0:
        return "-0.0"  # str(int(-0.0)) would drop the sign
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)
