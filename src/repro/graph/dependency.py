"""Building the column dependency graph (paper §3, Figure 2).

Vertices are columns, edge weights are pairwise dependencies in
``[0, 1]``: normalized mutual information, the paper's measure, which
copes with mixed types and non-linear relationships.  The graph also
exposes the *dissimilarity* view (``1 − weight``) that PAM needs.

Graphs are produced by a :class:`GraphBuilder`, which layers three kinds
of reuse over the batched NMI kernel (:mod:`repro.stats.batched`):

* **column codes** are cached per (table fingerprint, column, binning)
  in a :class:`~repro.graph.codes.CodeCache`, so navigating to a new
  selection gathers cached codes by row index instead of
  re-discretizing;
* **finished graphs** are memoized in an optional shared result cache
  (the service's map cache) keyed by (fingerprint, columns digest,
  bin-cut sample, sample, seed, selection rows) — a rollback or a second
  session landing on the same graph pays one dictionary lookup;
* **a build reads what it needs**, one code path on either residency:
  sampled and selection-restricted builds gather just their rows, and
  whole-table NMI builds stream the table's partitions, chunk by chunk,
  through one accumulating kernel
  (:class:`~repro.stats.batched.StreamingPairwiseNMI`).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.graph.codes import CodeCache, code_matrix, gather_codes, resolve_entries
from repro.obs.metrics import get_metrics
from repro.obs.trace import get_tracer
from repro.resilience.deadline import checkpoint
from repro.stats.batched import StreamingPairwiseNMI, pairwise_nmi_matrix
from repro.table.sampling import seed_for, uniform_sample
from repro.table.table import Table

__all__ = [
    "DependencyGraph",
    "GraphBuilder",
    "DEFAULT_GRAPH_SEED",
    "DEFAULT_BIN_SAMPLE_SIZE",
]

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
        The dependency measure that produced the weights: always
        ``"nmi"``, named in ``/graph`` responses and stored artifacts.
    """

    columns: tuple[str, ...]
    weights: np.ndarray
    measure: str = "nmi"

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

    def edges(self) -> list[tuple[str, str, float]]:
        """All edges, strongest first.

        Zero-weight pairs are non-edges and never listed.
        """
        out: list[tuple[str, str, float]] = []
        for i in range(self.n_columns):
            for j in range(i + 1, self.n_columns):
                weight = float(self.weights[i, j])
                if weight > 0.0:
                    out.append((self.columns[i], self.columns[j], weight))
        out.sort(key=lambda edge: (-edge[2], edge[0], edge[1]))
        return out


class GraphBuilder:
    """Dependency-graph construction with navigation-aware reuse.

    One builder is shared per engine: its :class:`CodeCache` amortizes
    discretization across every explorer and navigation step, and an
    optional ``result_cache`` (any ``get(key)``/``put(key, value)``
    mapping — the service installs its shared map cache) memoizes
    finished graphs across sessions.  Builds, memo hits and misses are
    counted in the process-global registry (``blaeu_graph_*``; the code
    cache counts its own lookups there).

    Every build draws its row sample from a generator seeded by
    :func:`~repro.table.sampling.seed_for` of the graph's content key —
    the map pipeline's convention — so the graph a request produces
    depends on neither cache warmth nor whether a cache is installed.
    """

    def __init__(self, result_cache: object | None = None) -> None:
        self._result_cache = result_cache
        self._code_cache = CodeCache()
        #: Wall seconds of the most recent computed build (0 before one).
        self.last_build_seconds = 0.0

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

    def build(
        self,
        table: Table,
        columns: Sequence[str] | None = None,
        *,
        sample: int | None = None,
        seed: int = DEFAULT_GRAPH_SEED,
        row_indices: np.ndarray | None = None,
        bin_sample_size: int = DEFAULT_BIN_SAMPLE_SIZE,
    ) -> DependencyGraph:
        """Compute (or recall) the dependency graph of (part of) a table.

        Parameters
        ----------
        table:
            Source table — in-memory or store-backed.
        columns:
            Vertices; defaults to every column.  Key columns should
            already be excluded by the caller (the engine drops them
            before calling).
        sample:
            Estimate from a uniform sample of this many rows (the
            engine's interaction-time path for large tables).  The
            sample is drawn from a generator seeded by the graph's
            content key, so repeated builds agree.
        seed:
            Root seed: part of the content key, and the seed of the
            deterministic bin-cut sample; defaults to the engine-wide
            root (:data:`DEFAULT_GRAPH_SEED`).
        row_indices:
            Restrict the build to these base-table rows — the navigation
            path, where a zoomed selection's graph reuses the base
            table's cached codes; sampling applies within them.
        bin_sample_size:
            Rows in the deterministic bin-cut sample.
        """
        names = (
            tuple(columns) if columns is not None else tuple(table.column_names)
        )
        if len(names) < 1:
            raise ValueError("dependency graph needs at least one column")

        started = time.perf_counter()
        with get_tracer().span("graph.build") as span:
            cache = self._result_cache
            key = _graph_cache_key(
                table, names, sample, seed, bin_sample_size, row_indices
            )
            metrics = get_metrics()
            if cache is not None:
                hit = cache.get(key)
                if hit is not None:
                    metrics.increment("blaeu_graph_cache_hits_total")
                    if span.enabled:
                        span.set("cache_hit", True)
                    return hit  # type: ignore[return-value]
                metrics.increment("blaeu_graph_cache_misses_total")

            if span.enabled:
                span.set("cache_hit", False)
                span.set("measure", "nmi")
                span.set("n_columns", len(names))
            graph = self._build(
                table, names, sample, key, seed, row_indices, bin_sample_size
            )
            if cache is not None:
                cache.put(key, graph)
            seconds = time.perf_counter() - started
            self.last_build_seconds = seconds
            metrics.increment("blaeu_graph_builds_total")
            metrics.observe("blaeu_graph_build_seconds", seconds)
            return graph

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _build(
        self,
        table: Table,
        names: tuple[str, ...],
        sample: int | None,
        key: tuple,
        seed: int,
        row_indices: np.ndarray | None,
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

        weights = self._nmi_weights(table, names, rows, bin_sample_size, seed)
        return DependencyGraph(columns=names, weights=weights)

    def _nmi_weights(
        self,
        table: Table,
        names: tuple[str, ...],
        rows: np.ndarray | None,
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
                bin_sample_size=bin_sample_size,
                seed=seed,
                cache=self._code_cache,
                rows=rows,
            )
        with tracer.span("graph.nmi") as span:
            if span.enabled:
                span.set("streaming", False)
                span.set("rows", int(codes.codes.shape[1]))
            return pairwise_nmi_matrix(codes)


# ----------------------------------------------------------------------
# Module internals
# ----------------------------------------------------------------------


def _graph_cache_key(
    table,
    names: tuple[str, ...],
    sample: int | None,
    seed: int,
    bin_sample_size: int,
    row_indices: np.ndarray | None,
) -> tuple:
    """The canonical key of one graph build: its memo key and, through
    :func:`~repro.table.sampling.seed_for`, its seed.

    Content-addressed like the map cache: the table's fingerprint, a
    digest of the vertex set, every estimator knob, and (for
    selection-restricted builds) a digest of the row indices.  The
    ``"nmi"`` and ``None`` entries stand where the dependency measure and
    the bin-count override once did, so keys — and the theme seeds
    derived from them — do not move.
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
        "nmi",
        None,
        bin_sample_size,
        sample,
        seed,
        rows_digest,
    )
