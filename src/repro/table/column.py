"""Typed columns with explicit missing-value masks.

Blaeu's mapping engine must "cope with mixed data, potentially including
missing values" (paper, §3).  The column model therefore distinguishes two
kinds of columns and carries an explicit null mask rather than relying on
NaN sentinels:

* :class:`NumericColumn` — float64 values (continuous indicators such as
  *Average Income* or *Unemployment*).
* :class:`CategoricalColumn` — integer codes into a category list (labels
  such as *CountryName* or *Genre*).

Columns are immutable value objects: every transformation (``take``,
``filter``) returns a new column sharing no mutable state with its source.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

__all__ = ["Column", "ColumnKind", "NumericColumn", "CategoricalColumn"]

#: Values treated as missing when parsing raw (string) cells.
MISSING_TOKENS = frozenset({"", "na", "n/a", "nan", "null", "none", "?", "-"})


class ColumnKind(Enum):
    """The two data kinds Blaeu's preprocessing distinguishes."""

    NUMERIC = "numeric"
    CATEGORICAL = "categorical"


class Column(ABC):
    """Abstract base for a named, typed, nullable column.

    Concrete subclasses store their values in NumPy arrays and expose a
    shared interface used by the table, the preprocessor and the
    statistics layer.
    """

    __slots__ = ("_name", "_missing")

    def __init__(self, name: str, missing: np.ndarray) -> None:
        if not name:
            raise ValueError("column name must be a non-empty string")
        self._name = name
        self._missing = np.asarray(missing, dtype=bool)
        self._missing.setflags(write=False)

    @property
    def name(self) -> str:
        """The column's name, unique within its table."""
        return self._name

    @property
    @abstractmethod
    def kind(self) -> ColumnKind:
        """Whether the column is numeric or categorical."""

    @property
    def missing_mask(self) -> np.ndarray:
        """Boolean array; ``True`` where the value is missing."""
        return self._missing

    @property
    def n_missing(self) -> int:
        """Number of missing cells."""
        return int(self._missing.sum())

    @property
    def present_mask(self) -> np.ndarray:
        """Boolean array; ``True`` where the value is present."""
        return ~self._missing

    def __len__(self) -> int:
        return int(self._missing.shape[0])

    @abstractmethod
    def take(self, indices: np.ndarray) -> "Column":
        """Return a new column containing the rows at ``indices`` (in order)."""

    def filter(self, mask: np.ndarray) -> "Column":
        """Return a new column keeping only rows where ``mask`` is ``True``."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape[0] != len(self):
            raise ValueError(
                f"mask length {mask.shape[0]} != column length {len(self)}"
            )
        return self.take(np.flatnonzero(mask))

    @abstractmethod
    def slice(self, start: int, stop: int) -> "Column":
        """Rows ``[start, stop)`` as views of this column's arrays.

        The arrays were validated when this column was built and are
        read-only, so the slice shares them and checks nothing: what an
        in-memory scan chunk costs, whatever its length.
        """

    @abstractmethod
    def value_at(self, index: int) -> object:
        """Python-native value at ``index`` (``None`` when missing)."""

    @abstractmethod
    def n_distinct(self) -> int:
        """Number of distinct present values."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} {self._name!r} len={len(self)} "
            f"missing={self.n_missing}>"
        )


class NumericColumn(Column):
    """A column of float64 values with a missing mask.

    Missing cells hold ``nan`` in the backing array, but the mask — not the
    NaN payload — is authoritative: callers must consult
    :attr:`missing_mask` (NaN is also stored so that accidental use of a
    missing cell poisons downstream arithmetic loudly instead of silently).
    """

    __slots__ = ("_values",)

    def __init__(
        self,
        name: str,
        values: Iterable[float],
        missing: np.ndarray | None = None,
    ) -> None:
        array = np.asarray(
            list(values) if not isinstance(values, np.ndarray) else values,
            dtype=np.float64,
        )
        if missing is not None:
            # Missing cells are poisoned below: never in the caller's array.
            array = array.copy()
        self._install(name, array, missing)

    @classmethod
    def adopt(
        cls, name: str, values: np.ndarray, missing: np.ndarray
    ) -> "NumericColumn":
        """A column over arrays the caller has just created and hands over.

        The constructor without its defensive copy, for the producers of
        fresh arrays (chunk reads, gathers, concatenations): same
        validation, and missing cells are poisoned *in* ``values``.  The
        caller must not write to either array afterwards.
        """
        column = cls.__new__(cls)
        column._install(name, np.asarray(values, dtype=np.float64), missing)
        return column

    def _install(
        self, name: str, array: np.ndarray, missing: np.ndarray | None
    ) -> None:
        """Validate and keep ``array`` (which this column now owns)."""
        if array.ndim != 1:
            raise ValueError("numeric column values must be one-dimensional")
        if missing is None:
            mask = np.isnan(array)
        else:
            mask = np.asarray(missing, dtype=bool)
            if mask.shape != array.shape:
                raise ValueError("missing mask shape must match values shape")
            if mask.any():
                array[mask] = np.nan
        array.setflags(write=False)
        super().__init__(name, mask)
        self._values = array

    @classmethod
    def from_cells(
        cls, name: str, cells: Sequence[str | float | None]
    ) -> "NumericColumn":
        """Parse raw cells (strings or numbers); unparseable cells are missing."""
        values = np.empty(len(cells), dtype=np.float64)
        mask = np.zeros(len(cells), dtype=bool)
        for i, cell in enumerate(cells):
            parsed = _parse_float(cell)
            if parsed is None:
                values[i] = np.nan
                mask[i] = True
            else:
                values[i] = parsed
        return cls(name, values, mask)

    @property
    def kind(self) -> ColumnKind:
        return ColumnKind.NUMERIC

    @property
    def values(self) -> np.ndarray:
        """Backing float64 array (missing cells are NaN). Read-only."""
        return self._values

    def present_values(self) -> np.ndarray:
        """The non-missing values, in row order."""
        return self._values[self.present_mask]

    def take(self, indices: np.ndarray) -> "NumericColumn":
        indices = np.asarray(indices, dtype=np.intp)
        return NumericColumn.adopt(
            self._name, self._values[indices], self._missing[indices]
        )

    def slice(self, start: int, stop: int) -> "NumericColumn":
        column = NumericColumn.__new__(NumericColumn)
        Column.__init__(column, self._name, self._missing[start:stop])
        column._values = self._values[start:stop]
        return column

    def value_at(self, index: int) -> float | None:
        if self._missing[index]:
            return None
        return float(self._values[index])

    def n_distinct(self) -> int:
        present = self.present_values()
        if present.size == 0:
            return 0
        return int(np.unique(present).size)

    def min(self) -> float:
        """Smallest present value (``nan`` when the column is all-missing)."""
        present = self.present_values()
        return float(present.min()) if present.size else math.nan

    def max(self) -> float:
        """Largest present value (``nan`` when the column is all-missing)."""
        present = self.present_values()
        return float(present.max()) if present.size else math.nan

    def mean(self) -> float:
        """Mean of present values (``nan`` when the column is all-missing)."""
        present = self.present_values()
        return float(present.mean()) if present.size else math.nan

    def std(self) -> float:
        """Population standard deviation of present values."""
        present = self.present_values()
        return float(present.std()) if present.size else math.nan

    def median(self) -> float:
        """Median of present values (``nan`` when the column is all-missing)."""
        present = self.present_values()
        return float(np.median(present)) if present.size else math.nan


class CategoricalColumn(Column):
    """A column of labels stored as integer codes into a category list.

    The code ``-1`` marks a missing cell.  Categories are stored in first-
    appearance order and are not required to be exhaustive: a filtered
    column keeps its parent's category list so that codes remain comparable
    across selections (important when a decision tree trained on a sample
    is evaluated against the full table).
    """

    __slots__ = ("_codes", "_categories", "_index")

    MISSING_CODE = -1

    def __init__(
        self,
        name: str,
        codes: Iterable[int],
        categories: Sequence[str],
    ) -> None:
        categories = tuple(str(c) for c in categories)
        if len(set(categories)) != len(categories):
            raise ValueError("categories must be distinct")
        self._install(
            name, codes, categories, {c: i for i, c in enumerate(categories)}
        )

    def with_codes(self, codes: Iterable[int]) -> "CategoricalColumn":
        """A column of ``codes`` over this column's dictionary.

        The category list and its label index were validated when this
        column was built and are immutable, so the new column shares
        them: only the codes are checked.  What lets a chunked scan or a
        gather cost the same whatever the size of the dictionary.
        """
        column = CategoricalColumn.__new__(CategoricalColumn)
        column._install(self._name, codes, self._categories, self._index)
        return column

    def _install(
        self,
        name: str,
        codes: Iterable[int],
        categories: tuple[str, ...],
        index: dict[str, int],
    ) -> None:
        """Validate ``codes`` against an already-validated dictionary."""
        codes_array = np.asarray(
            list(codes) if not isinstance(codes, np.ndarray) else codes,
            dtype=np.int32,
        )
        if codes_array.ndim != 1:
            raise ValueError("categorical codes must be one-dimensional")
        if codes_array.size and codes_array.max(initial=-1) >= len(categories):
            raise ValueError("code out of range of the category list")
        if codes_array.size and codes_array.min(initial=0) < -1:
            raise ValueError("negative codes other than -1 are not allowed")
        codes_array.setflags(write=False)
        super().__init__(name, codes_array == self.MISSING_CODE)
        self._codes = codes_array
        self._categories = categories
        self._index = index

    @classmethod
    def from_labels(
        cls, name: str, labels: Sequence[str | None]
    ) -> "CategoricalColumn":
        """Build from raw labels; ``None``/missing tokens become missing cells."""
        categories: list[str] = []
        index: dict[str, int] = {}
        codes = np.empty(len(labels), dtype=np.int32)
        for i, label in enumerate(labels):
            if label is None or str(label).strip().lower() in MISSING_TOKENS:
                codes[i] = cls.MISSING_CODE
                continue
            label = str(label)
            code = index.get(label)
            if code is None:
                code = len(categories)
                index[label] = code
                categories.append(label)
            codes[i] = code
        return cls(name, codes, categories)

    @property
    def kind(self) -> ColumnKind:
        return ColumnKind.CATEGORICAL

    @property
    def codes(self) -> np.ndarray:
        """Backing int32 code array (missing cells are ``-1``). Read-only."""
        return self._codes

    @property
    def categories(self) -> tuple[str, ...]:
        """The category list; ``categories[code]`` is the label."""
        return self._categories

    def code_of(self, label: str) -> int:
        """The code for ``label``; raises ``KeyError`` for unknown labels."""
        return self._index[label]

    def take(self, indices: np.ndarray) -> "CategoricalColumn":
        indices = np.asarray(indices, dtype=np.intp)
        return self.with_codes(self._codes[indices])

    def slice(self, start: int, stop: int) -> "CategoricalColumn":
        column = CategoricalColumn.__new__(CategoricalColumn)
        Column.__init__(column, self._name, self._missing[start:stop])
        column._codes = self._codes[start:stop]
        column._categories = self._categories
        column._index = self._index
        return column

    def value_at(self, index: int) -> str | None:
        code = int(self._codes[index])
        if code == self.MISSING_CODE:
            return None
        return self._categories[code]

    def labels(self) -> list[str | None]:
        """All cells as Python labels (``None`` where missing)."""
        return [self.value_at(i) for i in range(len(self))]

    def n_distinct(self) -> int:
        present = self._codes[self.present_mask]
        if present.size == 0:
            return 0
        return int(np.unique(present).size)

    def value_counts(self) -> dict[str, int]:
        """Present labels mapped to their frequencies, most frequent first."""
        present = self._codes[self.present_mask]
        counts = np.bincount(present, minlength=len(self._categories))
        pairs = [
            (self._categories[code], int(n))
            for code, n in enumerate(counts)
            if n > 0
        ]
        pairs.sort(key=lambda item: (-item[1], item[0]))
        return dict(pairs)

    def compact(self) -> "CategoricalColumn":
        """Drop categories that no longer occur (after filtering)."""
        present = self._codes[self.present_mask]
        used = np.unique(present) if present.size else np.empty(0, dtype=np.int32)
        remap = np.full(len(self._categories), self.MISSING_CODE, dtype=np.int32)
        remap[used] = np.arange(used.size, dtype=np.int32)
        new_codes = np.where(
            self._codes == self.MISSING_CODE, self.MISSING_CODE, remap[self._codes]
        )
        new_categories = [self._categories[code] for code in used]
        return CategoricalColumn(self._name, new_codes, new_categories)


def _parse_float(cell: str | float | None) -> float | None:
    """Parse one raw cell to float; return ``None`` when missing/unparseable."""
    if cell is None:
        return None
    if isinstance(cell, (int, float)):
        value = float(cell)
        return None if math.isnan(value) else value
    text = str(cell).strip()
    if text.lower() in MISSING_TOKENS:
        return None
    try:
        value = float(text)
    except ValueError:
        return None
    return None if math.isnan(value) else value
