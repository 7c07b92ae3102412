"""Building the column dependency graph (paper §3, Figure 2).

Vertices are columns, edge weights are pairwise dependencies in
``[0, 1]`` (normalized mutual information by default; absolute Pearson/
Spearman correlation as the alternatives the paper mentions).  The graph
also exposes the *dissimilarity* view (``1 − weight``) that PAM needs.

Graphs are produced by a :class:`GraphBuilder`, which layers three kinds
of reuse over the batched NMI kernel (:mod:`repro.stats.batched`):

* **column codes** are cached per (table fingerprint, column, binning)
  in a :class:`~repro.graph.codes.CodeCache`, so navigating to a new
  selection gathers cached codes by row index instead of
  re-discretizing;
* **finished graphs** are memoized in an optional shared result cache
  (the service's map cache) keyed by (fingerprint, columns digest,
  measure, bins, sample, seed, selection rows) — a rollback or a second
  session landing on the same graph pays one dictionary lookup;
* **a build reads what it needs**, one code path on either residency:
  sampled and selection-restricted builds gather just their rows, and
  whole-table NMI builds stream the table's partitions, chunk by chunk,
  through one accumulating kernel
  (:class:`~repro.stats.batched.StreamingPairwiseNMI`).  (The
  correlation measures are the one exception: a whole-table
  pearson/spearman build gathers the numeric block — rank transforms
  do not stream — so pass ``sample`` on huge stores.)
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from repro.graph.codes import CodeCache, code_matrix, gather_codes, resolve_entries
from repro.obs.metrics import get_metrics
from repro.obs.trace import get_tracer
from repro.resilience.deadline import checkpoint
from repro.stats.batched import StreamingPairwiseNMI, pairwise_nmi_matrix
from repro.stats.correlation import pairwise_correlation_matrix
from repro.table.column import ColumnKind
from repro.table.sampling import seed_for, uniform_sample
from repro.table.table import Table

__all__ = [
    "DependencyGraph",
    "GraphBuilder",
    "build_dependency_graph",
    "DEFAULT_GRAPH_SEED",
    "DEFAULT_BIN_SAMPLE_SIZE",
]

Measure = Literal["nmi", "pearson", "spearman"]

#: Fallback ``seed`` — the same root every other stage defaults to
#: (``BlaeuConfig.seed``), so repeated builds (and the keys derived from
#: them) agree.
DEFAULT_GRAPH_SEED = 42

#: Default size of the deterministic row sample numeric bin cuts are
#: derived from (see :mod:`repro.graph.codes`).
DEFAULT_BIN_SAMPLE_SIZE = 4096


@dataclass(frozen=True)
class DependencyGraph:
    """A column dependency graph with its weight matrix.

    Attributes
    ----------
    columns:
        Vertex order; row/column ``i`` of the matrices refers to
        ``columns[i]``.
    weights:
        Symmetric dependency matrix in ``[0, 1]``, unit diagonal.
    measure:
        Which dependency measure produced the weights.
    """

    columns: tuple[str, ...]
    weights: np.ndarray
    measure: Measure = "nmi"

    @property
    def n_columns(self) -> int:
        """Number of vertices."""
        return len(self.columns)

    def dissimilarity(self) -> np.ndarray:
        """``1 − weights`` with a zero diagonal — PAM's input."""
        out = 1.0 - self.weights
        np.fill_diagonal(out, 0.0)
        return np.clip(out, 0.0, 1.0)

    def weight(self, a: str, b: str) -> float:
        """Dependency between two named columns."""
        i = self.columns.index(a)
        j = self.columns.index(b)
        return float(self.weights[i, j])

    def edges(self, min_weight: float = 0.0) -> list[tuple[str, str, float]]:
        """All edges at or above ``min_weight``, strongest first.

        Zero-weight pairs are non-edges and never listed.
        """
        out: list[tuple[str, str, float]] = []
        for i in range(self.n_columns):
            for j in range(i + 1, self.n_columns):
                weight = float(self.weights[i, j])
                if weight >= min_weight and weight > 0.0:
                    out.append((self.columns[i], self.columns[j], weight))
        out.sort(key=lambda edge: (-edge[2], edge[0], edge[1]))
        return out


class GraphBuilder:
    """Dependency-graph construction with navigation-aware reuse.

    One builder is shared per engine: its :class:`CodeCache` amortizes
    discretization across every explorer and navigation step, and an
    optional ``result_cache`` (any ``get(key)``/``put(key, value)``
    mapping — the service installs its shared map cache) memoizes
    finished graphs across sessions.

    Every build draws its row sample from a generator seeded by
    :func:`~repro.table.sampling.seed_for` of the graph's content key —
    the map pipeline's convention — so the graph a request produces
    depends on neither cache warmth nor whether a cache is installed.
    """

    def __init__(
        self,
        result_cache: object | None = None,
        code_cache: CodeCache | None = None,
        metrics: object | None = None,
    ) -> None:
        self._result_cache = result_cache
        self._code_cache = code_cache or CodeCache()
        self._metrics = metrics
        self._lock = threading.Lock()
        self._builds = 0
        self._result_hits = 0
        self._result_misses = 0
        self._last_build_seconds = 0.0

    @property
    def code_cache(self) -> CodeCache:
        """The per-column code cache."""
        return self._code_cache

    @property
    def result_cache(self) -> object | None:
        """The shared graph memo (``None`` when memoization is off)."""
        return self._result_cache

    def set_result_cache(self, cache: object | None) -> None:
        """Install (or remove) the shared graph result cache."""
        self._result_cache = cache

    def set_metrics(self, metrics: object | None) -> None:
        """Override the metric sink (tests isolating their counters).

        By default graph builds, memo hits/misses and code-cache
        hits/misses report into the process-global
        :func:`repro.obs.get_metrics` registry — the service and the
        CLI no longer wire anything.  ``None`` restores the default.
        """
        self._metrics = metrics

    def stats(self) -> dict[str, float]:
        """Build and cache counters (code-cache counters folded in)."""
        code = self._code_cache.stats()
        with self._lock:
            return {
                "builds": self._builds,
                "graph_cache_hits": self._result_hits,
                "graph_cache_misses": self._result_misses,
                "code_cache_hits": code["hits"],
                "code_cache_misses": code["misses"],
                "last_build_seconds": self._last_build_seconds,
            }

    def build(
        self,
        table: Table,
        columns: Sequence[str] | None = None,
        *,
        measure: Measure = "nmi",
        n_bins: int | None = None,
        sample: int | None = None,
        seed: int = DEFAULT_GRAPH_SEED,
        row_indices: np.ndarray | None = None,
        n_jobs: int | None = None,
        bin_sample_size: int = DEFAULT_BIN_SAMPLE_SIZE,
    ) -> DependencyGraph:
        """Compute (or recall) the dependency graph of (part of) a table.

        Parameters mirror :func:`build_dependency_graph`;
        ``row_indices`` restricts the build to those base-table rows —
        the navigation path, where a zoomed selection's graph reuses
        the base table's cached codes.
        """
        names = (
            tuple(columns) if columns is not None else tuple(table.column_names)
        )
        if len(names) < 1:
            raise ValueError("dependency graph needs at least one column")
        if measure not in ("nmi", "pearson", "spearman"):
            raise ValueError(f"unknown dependency measure {measure!r}")

        started = time.perf_counter()
        with get_tracer().span("graph.build") as span:
            cache = self._result_cache
            key = _graph_cache_key(
                table,
                names,
                measure,
                n_bins,
                sample,
                seed,
                bin_sample_size,
                row_indices,
            )
            if cache is not None:
                hit = cache.get(key)
                if hit is not None:
                    with self._lock:
                        self._result_hits += 1
                    self._count("blaeu_graph_cache_hits_total")
                    if span.enabled:
                        span.set("cache_hit", True)
                    return hit  # type: ignore[return-value]
                with self._lock:
                    self._result_misses += 1
                self._count("blaeu_graph_cache_misses_total")

            if span.enabled:
                span.set("cache_hit", False)
                span.set("measure", measure)
                span.set("n_columns", len(names))
            code_before = self._code_cache.stats()
            graph = self._build(
                table,
                names,
                measure,
                n_bins,
                sample,
                key,
                seed,
                row_indices,
                n_jobs,
                bin_sample_size,
            )
            if cache is not None:
                cache.put(key, graph)
            seconds = time.perf_counter() - started
            with self._lock:
                self._builds += 1
                self._last_build_seconds = seconds
            code_after = self._code_cache.stats()
            self._count("blaeu_graph_builds_total")
            self._registry().observe("blaeu_graph_build_seconds", seconds)
            self._count(
                "blaeu_graph_code_cache_hits_total",
                code_after["hits"] - code_before["hits"],
            )
            self._count(
                "blaeu_graph_code_cache_misses_total",
                code_after["misses"] - code_before["misses"],
            )
            return graph

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _registry(self):
        """The metric sink: the explicit override or the global registry."""
        return self._metrics if self._metrics is not None else get_metrics()

    def _count(self, name: str, by: int = 1) -> None:
        if by:
            self._registry().increment(name, by)

    def _build(
        self,
        table: Table,
        names: tuple[str, ...],
        measure: Measure,
        n_bins: int | None,
        sample: int | None,
        key: tuple,
        seed: int,
        row_indices: np.ndarray | None,
        n_jobs: int | None,
        bin_sample_size: int,
    ) -> DependencyGraph:
        base = None
        if row_indices is not None:
            base = np.asarray(row_indices, dtype=np.intp)
        universe = base.shape[0] if base is not None else table.n_rows
        rows = base
        if sample is not None and sample < universe:
            rng = np.random.default_rng(seed_for(*key))
            picked = uniform_sample(universe, sample, rng)
            rows = base[picked] if base is not None else picked

        if measure == "nmi":
            weights = self._nmi_weights(
                table, names, n_bins, rows, n_jobs, bin_sample_size, seed
            )
        else:
            weights = self._correlation_weights(table, names, rows, measure)
        return DependencyGraph(columns=names, weights=weights, measure=measure)

    def _nmi_weights(
        self,
        table: Table,
        names: tuple[str, ...],
        n_bins: int | None,
        rows: np.ndarray | None,
        n_jobs: int | None,
        bin_sample_size: int,
        seed: int,
    ) -> np.ndarray:
        tracer = get_tracer()
        if rows is None:
            # Whole-table build: one pass streams every partition's
            # chunks through one accumulator, full columns never
            # resident.
            with tracer.span("graph.codes"):
                entries = resolve_entries(
                    table,
                    names,
                    n_bins=n_bins,
                    bin_sample_size=bin_sample_size,
                    seed=seed,
                    cache=self._code_cache,
                )
            with tracer.span("graph.nmi") as span:
                n_codes = [entries[name].n_codes for name in names]
                streaming = StreamingPairwiseNMI(names, n_codes)
                chunks = 0
                for _, _, chunk, _ in table.scan_partitions(
                    table.partitions, names
                ):
                    checkpoint("graph.nmi.chunk")
                    streaming.update(code_matrix(chunk, names, entries))
                    chunks += 1
                if span.enabled:
                    span.set("streaming", True)
                    span.set("chunks", chunks)
                return streaming.finalize()
        with tracer.span("graph.codes"):
            codes = gather_codes(
                table,
                names,
                n_bins=n_bins,
                bin_sample_size=bin_sample_size,
                seed=seed,
                cache=self._code_cache,
                rows=rows,
            )
        with tracer.span("graph.nmi") as span:
            if span.enabled:
                span.set("streaming", False)
                span.set("rows", int(codes.codes.shape[1]))
            return pairwise_nmi_matrix(codes, n_jobs=n_jobs)

    def _correlation_weights(
        self,
        table: Table,
        names: tuple[str, ...],
        rows: np.ndarray | None,
        measure: Measure,
    ) -> np.ndarray:
        """Vectorized pearson/spearman weights over the numeric block.

        One masked-product correlation over the stacked numeric columns
        replaces the per-pair Python loop; categorical pairs keep
        weight 0, as before.
        """
        weights = np.eye(len(names), dtype=np.float64)
        numeric = [
            index
            for index, name in enumerate(names)
            if table.kind(name) is ColumnKind.NUMERIC
        ]
        if len(numeric) < 2:
            return weights
        numeric_names = [names[index] for index in numeric]
        block = _numeric_block(table, numeric_names, rows)
        correlation = np.abs(
            pairwise_correlation_matrix(block, rank=measure == "spearman")
        )
        np.fill_diagonal(correlation, 1.0)
        grid = np.ix_(numeric, numeric)
        weights[grid] = correlation
        return weights

def build_dependency_graph(
    table: Table,
    columns: Sequence[str] | None = None,
    measure: Measure = "nmi",
    n_bins: int | None = None,
    sample: int | None = None,
    seed: int = DEFAULT_GRAPH_SEED,
    row_indices: np.ndarray | None = None,
    n_jobs: int | None = None,
    bin_sample_size: int = DEFAULT_BIN_SAMPLE_SIZE,
    code_cache: CodeCache | None = None,
    cache: object | None = None,
) -> DependencyGraph:
    """Compute the dependency graph of (a sample of) a table.

    A convenience front over :class:`GraphBuilder` for one-shot builds;
    long-lived callers (the engine, the service) hold a builder instead
    so codes and finished graphs are reused across calls.

    Parameters
    ----------
    table:
        Source table — in-memory or store-backed.
    columns:
        Vertices; defaults to every column.  Key columns should already be
        excluded by the caller (the engine drops them before calling).
    measure:
        ``nmi`` (paper's choice — handles mixed types and non-linear
        relationships), or ``pearson`` / ``spearman`` (numeric columns
        only; categorical pairs get weight 0).
    n_bins:
        Discretization override for the NMI estimator.
    sample:
        Estimate from a uniform sample of this many rows (the engine's
        interaction-time path for large tables).  The sample is drawn
        from a generator seeded by the graph's content key (see
        :class:`GraphBuilder`), so repeated builds agree.
    seed:
        Root seed: part of the content key, and the seed of the
        deterministic bin-cut sample; defaults to the engine-wide root
        (:data:`DEFAULT_GRAPH_SEED`).
    row_indices:
        Restrict the build to these base-table rows (a navigation
        selection); sampling applies within them.
    n_jobs:
        Thread fan-out of the batched NMI kernel, which sampled and
        row-restricted builds run (``None``/1 serial, 0 all cores);
        results are identical at any setting.
    bin_sample_size:
        Rows in the deterministic bin-cut sample.
    code_cache / cache:
        Optional column-code cache and graph result cache (see
        :class:`GraphBuilder`).
    """
    builder = GraphBuilder(result_cache=cache, code_cache=code_cache)
    return builder.build(
        table,
        columns,
        measure=measure,
        n_bins=n_bins,
        sample=sample,
        seed=seed,
        row_indices=row_indices,
        n_jobs=n_jobs,
        bin_sample_size=bin_sample_size,
    )


# ----------------------------------------------------------------------
# Module internals
# ----------------------------------------------------------------------


def _numeric_block(
    table, names: list[str], rows: np.ndarray | None
) -> np.ndarray:
    """The named numeric columns stacked as ``(rows, columns)`` float64.

    Missing cells are NaN.  Only the requested rows of the named
    columns are gathered (one ``take_columns`` read).  With
    ``rows=None`` this materializes the whole numeric block — fine for
    the correlation measures' sampled path, deliberate for whole-table
    builds (Spearman's rank transform needs every row resident); the
    NMI path never comes through here.
    """
    gather_at = (
        rows if rows is not None else np.arange(table.n_rows, dtype=np.intp)
    )
    sub = table.take_columns(names, gather_at)
    return np.column_stack([sub.column(name).values for name in names])


def _graph_cache_key(
    table,
    names: tuple[str, ...],
    measure: Measure,
    n_bins: int | None,
    sample: int | None,
    seed: int,
    bin_sample_size: int,
    row_indices: np.ndarray | None,
) -> tuple:
    """The canonical key of one graph build: its memo key and, through
    :func:`~repro.table.sampling.seed_for`, its seed.

    Content-addressed like the map cache: the table's fingerprint, a
    digest of the vertex set, every estimator knob, and (for
    selection-restricted builds) a digest of the row indices.
    """
    columns_digest = hashlib.sha256(
        "\x00".join(names).encode("utf-8")
    ).hexdigest()[:16]
    rows_digest = None
    if row_indices is not None:
        rows_digest = hashlib.sha256(
            np.ascontiguousarray(row_indices, dtype=np.int64).tobytes()
        ).hexdigest()[:16]
    return (
        "graph",
        table.fingerprint(),
        columns_digest,
        measure,
        n_bins,
        bin_sample_size,
        sample,
        seed,
        rows_digest,
    )
