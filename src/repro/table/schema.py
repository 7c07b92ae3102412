"""Schema inference and key detection.

The paper's engine ingests "external DBs and CSV files" (Figure 4) and its
preprocessing step "removes the primary keys" (§3).  This module supplies
both pieces: given raw (string) cells it decides whether a column is
numeric or categorical, and given a table it detects which columns behave
like keys and should be excluded from clustering.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.table.column import (
    CategoricalColumn,
    Column,
    ColumnKind,
    MISSING_TOKENS,
    NumericColumn,
    _parse_float,
)
from repro.table.table import Table

__all__ = ["infer_column", "detect_keys", "KeyScan"]

#: Numeric-looking columns whose present values all fall in this set are
#: kept categorical (0/1 flags read from CSV are flags, not measurements).
FLAG_VALUES = frozenset({0.0, 1.0})

#: Common name fragments that mark identifier columns.
KEY_NAME_HINTS = ("id", "key", "uuid", "code")


def infer_column(
    name: str,
    cells: Sequence[object],
    forced: ColumnKind | None = None,
) -> Column:
    """Build a typed column from raw cells.

    A column becomes numeric when every *present* cell parses as a float
    and the column is not a disguised flag (see
    :data:`LOW_CARDINALITY_NUMERIC`).  ``forced`` overrides inference.
    """
    if forced is ColumnKind.NUMERIC:
        return NumericColumn.from_cells(name, cells)  # type: ignore[arg-type]
    if forced is ColumnKind.CATEGORICAL:
        return CategoricalColumn.from_labels(
            name, [None if c is None else str(c) for c in cells]
        )

    parsed: list[float | None] = []
    any_present = False
    all_numeric = True
    for cell in cells:
        if cell is None or str(cell).strip().lower() in MISSING_TOKENS:
            parsed.append(None)
            continue
        any_present = True
        value = _parse_float(cell)
        if value is None:
            all_numeric = False
            break
        parsed.append(value)

    if all_numeric and any_present:
        present = {v for v in parsed if v is not None}
        if not present <= FLAG_VALUES:
            return NumericColumn.from_cells(name, cells)  # type: ignore[arg-type]
    return CategoricalColumn.from_labels(
        name, [None if c is None else str(c) for c in cells]
    )


def detect_keys(
    table: Table, columns: Sequence[str] | None = None
) -> tuple[str, ...]:
    """Columns that behave like primary keys.

    A column is flagged when it is all-distinct with no missing values,
    or when its name carries an identifier hint *and* it is almost
    distinct (>95% unique) — catching keys with a few duplicates from
    denormalized exports.

    Continuous measurements are all-distinct *by nature*, so numeric
    columns only qualify when every present value is integral (sequential
    row ids, account numbers) — an income column is never a key.

    ``columns`` restricts detection to those columns (in that order);
    the default tests every column of the table.
    """
    return KeyScan(table).keys(columns)


class KeyScan:
    """Exact key tests that read no more of a table than the answer needs.

    The verdicts are those of a full pass (every present value distinct
    and none missing, and ``n_distinct`` over whole columns); what
    changes is the reading.
    A dictionary bounds a categorical column's distinct count, so a
    small one settles every test without touching a code.  A numeric
    column is tested for integrality chunk by chunk and dropped at its
    first fractional value — one chunk for a continuous measurement.
    Only a column those tests leave open (an integer id, a label column
    as long as the table) pays a full distinct count.

    Chunks are the table's own ``chunk_rows``.  On a store-backed table
    they are slices of the column's memory map, so pages past the
    deciding chunk are never touched, and the map closes once that
    column's test returns.  ``chunks`` counts the column chunks read so
    far (a full distinct count reads every chunk of its column).
    """

    def __init__(self, table: Table) -> None:
        self._table = table
        self._step = table.chunk_rows
        self.chunks = 0

    def keys(self, columns: Sequence[str] | None = None) -> tuple[str, ...]:
        """The key columns among ``columns`` (default: all), in order."""
        names = self._table.column_names if columns is None else columns
        return tuple(
            name for name in names if self._is_key(self._table.column(name))
        )

    def wider_than(self, column: CategoricalColumn, cap: int) -> bool:
        """Whether more than ``cap`` distinct labels occur in ``column``."""
        if len(column.categories) <= cap:
            return False
        seen = np.zeros(len(column.categories), dtype=bool)
        for start in range(0, len(column), self._step):
            codes = column.codes[start : start + self._step]
            self.chunks += 1
            seen[codes[codes != column.MISSING_CODE]] = True
            if np.count_nonzero(seen) > cap:
                return True
        return False

    def _is_key(self, column: Column) -> bool:
        n = len(column)
        if n == 0:
            return False
        if isinstance(column, NumericColumn):
            integral, has_missing = self._integral_scan(column)
            if not integral:
                return False
            may_be_unique = not has_missing
            may_be_almost = True
        else:
            # ``n_distinct`` cannot exceed the dictionary: a test the
            # dictionary's size rules out needs no distinct count.
            size = len(column.categories)
            may_be_unique = size >= n and not column.n_missing
            may_be_almost = size > 0.95 * n
        lowered = column.name.lower()
        may_be_almost = may_be_almost and any(
            lowered == hint or lowered.endswith("_" + hint) or lowered.endswith(hint)
            for hint in KEY_NAME_HINTS
        )
        if not (may_be_unique or may_be_almost):
            return False
        self.chunks += -(-n // self._step)
        distinct = column.n_distinct()
        return (may_be_unique and distinct == n) or (
            may_be_almost and distinct > 0.95 * n
        )

    def _integral_scan(self, column: NumericColumn) -> tuple[bool, bool]:
        """``(integral, has_missing)``: whether every present value is a
        whole number (and one is present) and, when so, whether a cell
        is missing.  Stops at the first fractional value."""
        any_present = has_missing = False
        for start in range(0, len(column), self._step):
            missing = column.missing_mask[start : start + self._step]
            present = column.values[start : start + self._step][~missing]
            self.chunks += 1
            if present.size:
                any_present = True
                if not (present == present.astype(np.int64)).all():
                    return False, has_missing
            has_missing = has_missing or present.size < missing.size
        return any_present, has_missing
