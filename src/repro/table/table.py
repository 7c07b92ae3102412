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
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.table.column import (
    CategoricalColumn,
    Column,
    ColumnKind,
    NumericColumn,
)
from repro.table.predicates import Predicate

__all__ = ["Table"]


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
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_rows(
        cls,
        name: str,
        column_names: Sequence[str],
        rows: Iterable[Sequence[object]],
        kinds: Mapping[str, ColumnKind] | None = None,
    ) -> "Table":
        """Build a table from row tuples, inferring column kinds.

        ``kinds`` may force specific columns to a kind; otherwise a column
        becomes numeric when every present cell parses as a number.
        """
        from repro.table.schema import infer_column

        materialized = [tuple(row) for row in rows]
        for row in materialized:
            if len(row) != len(column_names):
                raise ValueError(
                    f"row width {len(row)} != header width {len(column_names)}"
                )
        columns = []
        for position, column_name in enumerate(column_names):
            cells = [row[position] for row in materialized]
            forced = kinds.get(column_name) if kinds else None
            columns.append(infer_column(column_name, cells, forced))
        return cls(name, columns)

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

    def numeric_columns(self) -> tuple[NumericColumn, ...]:
        """All numeric columns, in table order."""
        return tuple(
            c for c in self.columns if isinstance(c, NumericColumn)
        )

    def categorical_columns(self) -> tuple[CategoricalColumn, ...]:
        """All categorical columns, in table order."""
        return tuple(
            c for c in self.columns if isinstance(c, CategoricalColumn)
        )

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

    def rename(self, name: str) -> "Table":
        """The same table under a different name."""
        return Table(name, self.columns)

    def select(self, predicate: Predicate, name: str | None = None) -> "Table":
        """Rows matching ``predicate`` (order preserved)."""
        mask = predicate.mask(self)
        return self.filter(mask, name=name)

    def filter(self, mask: np.ndarray, name: str | None = None) -> "Table":
        """Rows where the boolean ``mask`` is ``True``."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape[0] != self._n_rows:
            raise ValueError(
                f"mask length {mask.shape[0]} != table rows {self._n_rows}"
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
        kept = [n for n in self._order if n not in dropped]
        return self.project(kept, name=name)

    def with_column(self, column: Column) -> "Table":
        """A copy with ``column`` appended (or replaced when the name exists)."""
        if len(column) != self._n_rows:
            raise ValueError(
                f"column length {len(column)} != table rows {self._n_rows}"
            )
        columns = [c for c in self.columns if c.name != column.name]
        columns.append(column)
        return Table(self._name, columns)

    def sample(self, n: int, rng: np.random.Generator) -> "Table":
        """A uniform sample of ``min(n, n_rows)`` distinct rows.

        This is the stand-in for MonetDB's ``SAMPLE`` clause; row order in
        the output follows the original table (MonetDB semantics).
        """
        from repro.table.sampling import uniform_sample

        indices = uniform_sample(self._n_rows, n, rng)
        return self.take(indices)

    def head(self, n: int = 10) -> "Table":
        """The first ``n`` rows."""
        return self.take(np.arange(min(n, self._n_rows)))

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
