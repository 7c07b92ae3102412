"""Column-code derivation and caching for dependency-graph builds.

Discretization is the graph stage's per-navigation fixed cost: every
zoom, theme edit, or selection re-examination needs the active columns
as integer codes.  This module makes that cost *once per table*:

* numeric **bin cuts** are derived from a deterministic row sample of
  the base table (seeded by the row count and the root seed alone, so
  the same table yields the same cuts in every process and on every
  residency), gathered with one ``take_columns`` read;
* a :class:`CodeCache` keyed by ``(table fingerprint, column, binning
  signature)`` keeps the derived artifact — the cuts, plus the full
  code vector for a resident table of at most
  :data:`_MAX_CACHED_CODE_ROWS` rows — so navigating to a new
  selection re-gathers cached codes by row index instead of
  re-discretizing;
* a column without cached codes never has to be materialized whole:
  its codes are produced per request by gathering exactly the needed
  rows (:func:`gather_codes`) and applying the cached cuts, or chunk by
  chunk (:func:`code_matrix`) for streaming whole-table builds.

Because cuts are a pure function of ``(fingerprint, column, binning
signature)``, a store-backed table and its in-memory twin produce
bit-identical codes for the same rows — the foundation of the
graph stage's cross-residency determinism guarantee.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.obs.metrics import get_metrics
from repro.stats.batched import ColumnCodes
from repro.stats.discretize import (
    MISSING_BIN,
    apply_bin_cuts,
    equal_frequency_cuts,
    suggest_bin_count,
)
from repro.table.column import CategoricalColumn, Column, ColumnKind, NumericColumn
from repro.table.sampling import uniform_sample

__all__ = [
    "CodeCache",
    "CodeEntry",
    "code_matrix",
    "gather_codes",
]

#: Resident tables up to this many rows also cache their full code
#: vectors: a gather from them is an index into a kept array (1.4 ms for
#: 1 000 rows x 378 columns on a 2-vCPU host, against 16 ms applying
#: cuts to gathered values).  Larger tables, and every store, cache the
#: cuts alone, bounding a cache entry at the size of the cuts array.
_MAX_CACHED_CODE_ROWS = 1 << 18

#: Seed-stream tag separating the bin-cut sample from every build's draws.
_CUT_SAMPLE_TAG = 0x9E3779B9


@dataclass(frozen=True)
class CodeEntry:
    """One column's cached code artifact.

    ``codes`` is the full-length code vector when it was cheap enough to
    keep (resident tables up to :data:`_MAX_CACHED_CODE_ROWS` rows);
    ``cuts`` alone suffices otherwise — codes are then derived per
    request from the gathered raw values.  Without kept codes a
    categorical column is pure pass-through (both fields ``None``): its
    codes ride along with every read.
    """

    n_codes: int
    codes: np.ndarray | None = None
    cuts: np.ndarray | None = None


class CodeCache:
    """A thread-safe LRU of :class:`CodeEntry` values.

    Keys are ``(table fingerprint, column name, binning signature)``
    tuples — content-addressed, never session-scoped, so every explorer
    sharing the cache reuses each other's discretization work.  Each
    lookup is counted once, in the process-global registry
    (``blaeu_graph_code_cache_{hits,misses}_total``).
    """

    def __init__(self, max_entries: int = 1024) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        self._max_entries = max_entries
        self._entries: OrderedDict[tuple, CodeEntry] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: tuple) -> CodeEntry | None:
        """The cached entry, or ``None`` on miss (moves hits to MRU)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
        outcome = "misses" if entry is None else "hits"
        get_metrics().increment(f"blaeu_graph_code_cache_{outcome}_total")
        return entry

    def put(self, key: tuple, entry: CodeEntry) -> None:
        """Insert (or refresh) an entry, evicting the LRU one if full."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = entry
            while len(self._entries) > self._max_entries:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


def gather_codes(
    table,
    names: Sequence[str],
    bin_sample_size: int = 4096,
    seed: int = 42,
    cache: CodeCache | None = None,
    rows: np.ndarray | None = None,
) -> ColumnCodes:
    """Codes for ``names`` of ``table`` at ``rows`` (``None``: all rows).

    Derives (or recalls from ``cache``) each column's
    :class:`CodeEntry`, then assembles the requested rows into a
    :class:`~repro.stats.batched.ColumnCodes` matrix.  Columns without
    kept codes are gathered at just the requested rows — one
    ``take_columns`` read of the needed columns.
    """
    names = tuple(names)
    entries = resolve_entries(
        table,
        names,
        bin_sample_size=bin_sample_size,
        seed=seed,
        cache=cache,
    )
    n_out = int(rows.shape[0]) if rows is not None else table.n_rows
    matrix = np.empty((len(names), n_out), dtype=np.int32)

    raw_needed = [name for name in names if entries[name].codes is None]
    if raw_needed:
        gather_at = (
            rows if rows is not None else np.arange(table.n_rows, dtype=np.intp)
        )
        sub = table.take_columns(raw_needed, gather_at)

    for index, name in enumerate(names):
        entry = entries[name]
        if entry.codes is not None:
            matrix[index] = (
                entry.codes if rows is None else entry.codes[rows]
            )
            continue
        matrix[index] = _column_codes(sub.column(name), entry)
    return ColumnCodes(
        names=names,
        codes=matrix,
        n_codes=tuple(entries[name].n_codes for name in names),
    )


def code_matrix(
    chunk, names: Sequence[str], entries: dict[str, CodeEntry]
) -> np.ndarray:
    """The ``(n_columns, rows)`` code matrix of one scan chunk — a fresh
    array, so the chunk's own (reused) buffers may be overwritten."""
    matrix = np.empty((len(names), chunk.n_rows), dtype=np.int32)
    for index, name in enumerate(names):
        matrix[index] = _column_codes(chunk.column(name), entries[name])
    return matrix


def resolve_entries(
    table,
    names: Sequence[str],
    bin_sample_size: int,
    seed: int,
    cache: CodeCache | None,
) -> dict[str, CodeEntry]:
    """Look up or derive the :class:`CodeEntry` of every named column."""
    fingerprint = table.fingerprint()
    signature = (bin_sample_size, seed)
    entries: dict[str, CodeEntry] = {}
    missing: list[str] = []
    for name in names:
        entry = (
            cache.get((fingerprint, name, signature))
            if cache is not None
            else None
        )
        if entry is None:
            missing.append(name)
        else:
            entries[name] = entry
    if not missing:
        return entries

    cut_rows = _cut_sample_rows(table.n_rows, bin_sample_size, seed)
    numeric = [name for name in missing if table.kind(name) is ColumnKind.NUMERIC]
    sample = table.take_columns(numeric, cut_rows) if numeric else None
    keep_codes = (
        table.residency == "memory" and table.n_rows <= _MAX_CACHED_CODE_ROWS
    )
    for name in missing:
        entry = _derive_entry(table, name, sample, keep_codes)
        entries[name] = entry
        if cache is not None:
            cache.put((fingerprint, name, signature), entry)
    return entries


# ----------------------------------------------------------------------
# Internals
# ----------------------------------------------------------------------


def _cut_sample_rows(n_rows: int, bin_sample_size: int, seed: int) -> np.ndarray:
    """The deterministic row sample the numeric bin cuts derive from.

    Seeded by ``(tag, seed)`` only — independent of residency and of the
    build that asks — so the same table always produces the same
    cuts, which is what lets cached codes be shared across processes and
    lets store/memory twins agree bit for bit.
    """
    rng = np.random.default_rng((_CUT_SAMPLE_TAG, seed))
    return uniform_sample(n_rows, min(bin_sample_size, n_rows), rng)


def _derive_entry(
    table,
    name: str,
    sample,
    keep_codes: bool,
) -> CodeEntry:
    """Compute one column's entry; a numeric column's cuts come from
    ``sample`` (the cut-sample rows of the numeric columns), and with
    ``keep_codes`` the full code vector is kept too."""
    if table.kind(name) is ColumnKind.CATEGORICAL:
        n_codes = len(table.categories(name))
        if not keep_codes:
            return CodeEntry(n_codes=n_codes)
        return CodeEntry(n_codes=n_codes, codes=table.column(name).codes)
    cuts = _numeric_cuts(sample.column(name))
    if not keep_codes:
        return CodeEntry(n_codes=len(cuts) + 1, cuts=cuts)
    return CodeEntry(
        n_codes=len(cuts) + 1,
        codes=_numeric_apply(table.column(name), cuts),
        cuts=cuts,
    )


def _numeric_cuts(column: NumericColumn) -> np.ndarray:
    """Equal-frequency cuts of a numeric column's present sample values,
    into as many bins as Sturges' rule gives for them
    (:func:`~repro.stats.discretize.suggest_bin_count`, at most 32)."""
    present = column.present_values()
    if present.size == 0:
        return np.empty(0, dtype=np.float64)
    return equal_frequency_cuts(present, suggest_bin_count(present.size))


def _numeric_apply(column: NumericColumn, cuts: np.ndarray) -> np.ndarray:
    """Codes of a numeric column under ``cuts`` (missing → ``-1``)."""
    codes = np.full(len(column), MISSING_BIN, dtype=np.int32)
    present = column.present_mask
    codes[present] = apply_bin_cuts(column.values[present], cuts)
    return codes


def _column_codes(column: Column, entry: CodeEntry) -> np.ndarray:
    """Codes of an already-gathered column under its entry."""
    if isinstance(column, CategoricalColumn):
        return column.codes.astype(np.int32, copy=False)
    assert entry.cuts is not None, "numeric column without cached cuts"
    return _numeric_apply(column, entry.cuts)
