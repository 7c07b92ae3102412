"""Column-code derivation and caching for dependency-graph builds.

Discretization is the graph stage's per-navigation fixed cost: every
zoom, theme edit, or selection re-examination needs the active columns
as integer codes.  This module makes that cost *once per table*:

* numeric **bin cuts** are derived from a deterministic row sample of
  the base table (seeded by the row count and the root seed alone, so
  the same table yields the same cuts in every process and on every residency);
* a :class:`CodeCache` keyed by ``(table fingerprint, column, binning
  signature)`` keeps the derived artifact — the full code vector for
  in-memory tables, just the cuts for store-backed ones — so navigating
  to a new selection re-gathers cached codes by row index instead of
  re-discretizing;
* store-backed tables (:mod:`repro.store`) never materialize a full
  column: their codes are produced per request by pushdown-gathering
  exactly the needed rows and applying the cached cuts, or chunk by
  chunk for streaming whole-table builds.

Because cuts are a pure function of ``(fingerprint, column, binning
signature)``, a store-backed table and its in-memory twin produce
bit-identical codes for the same rows — the foundation of the
graph stage's cross-residency determinism guarantee.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.stats.batched import ColumnCodes
from repro.stats.discretize import (
    MISSING_BIN,
    apply_bin_cuts,
    equal_frequency_cuts,
    suggest_bin_count,
)
from repro.table.column import CategoricalColumn, Column, NumericColumn
from repro.table.sampling import uniform_sample

__all__ = [
    "CodeCache",
    "CodeEntry",
    "code_matrix",
    "gather_codes",
    "is_store_backed",
    "iter_code_chunks",
]

#: In-memory tables larger than this cache bin cuts instead of full code
#: vectors, bounding a cache entry at the size of the cuts array.
_MAX_CACHED_CODE_ROWS = 1 << 18

#: Seed-stream tag separating the bin-cut sample from every build's draws.
_CUT_SAMPLE_TAG = 0x9E3779B9


@dataclass(frozen=True)
class CodeEntry:
    """One column's cached code artifact.

    ``codes`` is the full-length code vector when it was cheap enough to
    keep (in-memory tables up to :data:`_MAX_CACHED_CODE_ROWS` rows);
    ``cuts`` alone suffices otherwise — codes are then derived per
    request from the gathered raw values.  Categorical columns on a
    store are pure pass-through (both fields ``None``): their codes ride
    along with every pushdown read.
    """

    n_codes: int
    codes: np.ndarray | None = None
    cuts: np.ndarray | None = None


class CodeCache:
    """A thread-safe LRU of :class:`CodeEntry` values.

    Keys are ``(table fingerprint, column name, binning signature)``
    tuples — content-addressed, never session-scoped, so every explorer
    sharing the cache reuses each other's discretization work.
    """

    def __init__(self, max_entries: int = 1024) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        self._max_entries = max_entries
        self._entries: OrderedDict[tuple, CodeEntry] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    def get(self, key: tuple) -> CodeEntry | None:
        """The cached entry, or ``None`` on miss (moves hits to MRU)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return entry

    def put(self, key: tuple, entry: CodeEntry) -> None:
        """Insert (or refresh) an entry, evicting the LRU one if full."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = entry
            while len(self._entries) > self._max_entries:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry (statistics are kept)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict[str, int]:
        """Hit/miss/size counters, snapshot under the lock."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "size": len(self._entries),
                "max_entries": self._max_entries,
            }


def gather_codes(
    table,
    names: Sequence[str],
    n_bins: int | None = None,
    bin_sample_size: int = 4096,
    seed: int = 42,
    cache: CodeCache | None = None,
    rows: np.ndarray | None = None,
) -> ColumnCodes:
    """Codes for ``names`` of ``table`` at ``rows`` (``None``: all rows).

    Derives (or recalls from ``cache``) each column's
    :class:`CodeEntry`, then assembles the requested rows into a
    :class:`~repro.stats.batched.ColumnCodes` matrix.  Store-backed
    tables gather only the requested rows of the needed columns —
    one pushdown read, no full-column materialization.
    """
    names = tuple(names)
    entries = resolve_entries(
        table,
        names,
        n_bins=n_bins,
        bin_sample_size=bin_sample_size,
        seed=seed,
        cache=cache,
    )
    n_out = int(rows.shape[0]) if rows is not None else table.n_rows
    matrix = np.empty((len(names), n_out), dtype=np.int32)

    raw_needed = [name for name in names if entries[name].codes is None]
    sub = None
    if raw_needed and is_store_backed(table):
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
        column = sub.column(name) if sub is not None else table.column(name)
        if sub is None and rows is not None:
            column = column.take(rows)
        matrix[index] = _column_codes(column, entry)
    return ColumnCodes(
        names=names,
        codes=matrix,
        n_codes=tuple(entries[name].n_codes for name in names),
    )


def iter_code_chunks(
    table, names: Sequence[str], entries: dict[str, CodeEntry]
) -> Iterator[np.ndarray]:
    """Yield ``(n_columns, chunk)`` code matrices from a chunked scan.

    The streaming complement of :func:`gather_codes`: a store-backed
    table's whole-table graph build feeds these chunks into
    :class:`~repro.stats.batched.StreamingPairwiseNMI`, keeping resident
    memory at one chunk of the named columns.  (The process-parallel
    build scans a partition at a time and calls :func:`code_matrix`
    itself.)
    """
    names = tuple(names)
    with table.chunk_reader() as reader:
        for _, _, chunk in table.scan_chunks(reader, names):
            yield code_matrix(chunk, names, entries)


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
    n_bins: int | None,
    bin_sample_size: int,
    seed: int,
    cache: CodeCache | None,
) -> dict[str, CodeEntry]:
    """Look up or derive the :class:`CodeEntry` of every named column."""
    fingerprint = table.fingerprint()
    signature = (n_bins, bin_sample_size, seed)
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
    store_backed = is_store_backed(table)
    sample = None
    if store_backed:
        numeric = [
            name for name in missing if table.kind(name).value == "numeric"
        ]
        if numeric:
            sample = table.take_columns(numeric, cut_rows)
    for name in missing:
        entry = _derive_entry(
            table, name, n_bins, cut_rows, sample, store_backed
        )
        entries[name] = entry
        if cache is not None:
            cache.put((fingerprint, name, signature), entry)
    return entries


# ----------------------------------------------------------------------
# Internals
# ----------------------------------------------------------------------


def is_store_backed(table) -> bool:
    """Whether a table executes as chunked scans (the store residency).

    The same duck-typed probe :mod:`repro.core.pipeline` uses; the one
    shared definition keeps the gather and streaming paths agreeing on
    residency.
    """
    return getattr(table, "iter_chunks", None) is not None


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
    n_bins: int | None,
    cut_rows: np.ndarray,
    sample,
    store_backed: bool,
) -> CodeEntry:
    """Compute one column's entry from the cut-sample rows."""
    if store_backed:
        if table.kind(name).value == "categorical":
            return CodeEntry(n_codes=len(table.categories(name)))
        column = sample.column(name)
        cuts = _numeric_cuts(column, n_bins)
        return CodeEntry(n_codes=len(cuts) + 1, cuts=cuts)

    column = table.column(name)
    if isinstance(column, CategoricalColumn):
        return CodeEntry(
            n_codes=len(column.categories), codes=column.codes
        )
    if not isinstance(column, NumericColumn):
        raise TypeError(f"unsupported column type {type(column).__name__}")
    cuts = _numeric_cuts(column.take(cut_rows), n_bins)
    entry = CodeEntry(n_codes=len(cuts) + 1, cuts=cuts)
    if len(column) <= _MAX_CACHED_CODE_ROWS:
        entry = CodeEntry(
            n_codes=entry.n_codes,
            codes=_numeric_apply(column, cuts),
            cuts=cuts,
        )
    return entry


def _numeric_cuts(column: NumericColumn, n_bins: int | None) -> np.ndarray:
    """Equal-frequency cuts of a numeric column's present sample values."""
    present = column.present_values()
    if present.size == 0:
        return np.empty(0, dtype=np.float64)
    if n_bins is None:
        n_bins = suggest_bin_count(present.size)
    return equal_frequency_cuts(present, n_bins)


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
