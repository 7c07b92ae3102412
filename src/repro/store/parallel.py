"""Partition passes with deterministic merges, on both residencies.

Every selection-proportional pass — predicate masks, exact-count
routing, highlight accumulation, streaming NMI, zone-map construction —
reduces per-partition partials with associative merges, so fanning
partitions out over a ``ProcessPoolExecutor`` and re-assembling the
results **in partition order** reproduces the serial scan bit for bit.
The passes run one body whatever the table: a
:class:`~repro.store.stored.StoredTable`'s partitions come from its
manifest and its chunks are buffered reads, while an in-memory
:class:`~repro.table.table.Table` is one zone-less partition that is
never pruned, with no reader (``chunk_reader()`` opens nothing), chunks
that are zero-copy column slices and ``scan_jobs = None``.  Such a pass
is traced and counted under the same ``store.*`` span and metric names,
with ``partitions: 1``.

What a serial store scan spends, measured on a 1M-row / 16-partition store
(three-column conjunctive ``scan_mask``, 5-6 ms): 46 % in ``readinto``
from the page cache, 26 % in the predicate's NumPy kernels, the rest in
per-chunk Python.  Nothing is decoded or copied in between, and the
fresh pool a fanned-out scan builds costs several times that
(``scan_jobs=4`` read 0.15x of serial on two cores, the reading ROADMAP
item 2 records) — that item, on the parallel knobs, owns the question.

**One open table and one reader per scan.**  The table workers
(``scan_mask_task``, ``router_task``, ``highlight_task``, ``nmi_task``)
are called ``worker(table, reader, task)`` with an already-open table
and the reader of its ``chunk_reader()`` (a store's
:class:`~repro.store.format.ChunkReader`), and open neither themselves:
the serial path hands them the caller's table and a single reader that
spans every partition task of the scan (a task is often one chunk, so
only a reader that outlives it can reuse a file or a buffer), a pool
worker opens its store once when the process starts (the pool's
initializer) and makes a reader per task.  A scan on an open table
therefore never parses the manifest or re-validates the data files
again, opens each column file it needs once, and serial and pooled
scans stay one implementation.  A reader's arrays are overwritten by
the next chunk: a worker keeps nothing of a chunk but what it computed
or copied from it.  The reads a pool worker performs are folded back
into the caller's ``data_reads`` budget counter; serial reads land
there directly.

**Selection passes follow the selection.**  A pass over an
already-evaluated selection mask (exact counts) goes through
:func:`run_selection_pass`: a partition without a selected row gets no
task, a chunk without one is never read, and a worker routes the chunk's
selection segment as a contiguous mask — the pass costs what the
selection holds, not what the table holds.  A highlight evaluates its
own predicate in the same pass that collects the matches
(``highlight_task``): a chunk reads the predicate's columns, and only a
chunk holding a match goes on to read the inspected columns the
predicate does not reference, so no column is read twice and the
selection is never materialized as a whole-table mask.

Resilience rides along explicitly.  The parent's
:class:`~repro.resilience.deadline.Deadline` travels to workers as its
absolute monotonic expiry (``CLOCK_MONOTONIC`` is system-wide on the
platforms we run on), so per-chunk ``checkpoint`` calls inside a worker
abort against the *request's* deadline, not a per-worker restart of the
budget.  Fault injection needs no plumbing: ``BLAEU_FAULTS`` is an
environment variable, which worker processes inherit, and every worker
re-arms its injector from it — ``--faults`` chaos runs hit
``store.read`` fault points inside workers exactly as they do serially.

Workers are top-level functions taking one picklable task tuple; table
workers return ``(payload, chunks read)``.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.cluster.parallel import resolve_jobs
from repro.obs.metrics import get_metrics
from repro.obs.trace import get_tracer
from repro.resilience.deadline import (
    Deadline,
    checkpoint,
    current_deadline,
    set_deadline,
)

if TYPE_CHECKING:
    from repro.core.navigation import MatchedRows
    from repro.store.format import ChunkReader
    from repro.store.stored import StoredTable
    from repro.table.predicates import Predicate
    from repro.table.table import Table

__all__ = [
    "highlight_task",
    "nmi_task",
    "router_task",
    "run_highlight_pass",
    "run_partition_tasks",
    "run_selection_pass",
    "scan_mask_task",
    "zones_task",
]

#: A pool worker process's own open table, set once by the pool's
#: initializer; the parent process never assigns it.
_worker_table: "StoredTable | None" = None


def _open_worker_table(root: str, columns, name: str) -> None:
    """Pool initializer: open this worker's table, once per process."""
    global _worker_table
    from repro.store.stored import StoredTable

    _worker_table = StoredTable(root, columns=columns, name=name, scan_jobs=None)


def _run_in_worker(worker, task, expiry: tuple[float, float] | None):
    """Worker-side shim: reinstall the parent's deadline, then run.

    Table workers run on the process's own table and report the data
    reads the task cost alongside its result.
    """
    if expiry is not None:
        set_deadline(Deadline(expires_at=expiry[0], budget=expiry[1]))
    table = _worker_table
    if table is None:
        return worker(task)
    before = table.data_reads
    with table.chunk_reader() as reader:
        payload = worker(table, reader, task)
    return payload, table.data_reads - before


def run_partition_tasks(
    worker: Callable,
    tasks: Sequence,
    scan_jobs: int | None,
    table: "Table | StoredTable | None" = None,
) -> list:
    """``[worker(task) for task in tasks]``, optionally across processes.

    With ``table`` the calls are ``worker(table, reader, task)`` on an
    open table and one of its chunk readers: serially the caller's own
    table and a single reader spanning every task (closed on any exit);
    otherwise each pool process's own table (opened once, by the pool
    initializer) and a reader per task, with the workers' reads added
    to ``table.data_reads``.

    ``scan_jobs`` follows the repo's jobs convention (``None``/1 serial,
    0 every core, otherwise that many workers, clamped to the task
    count).  Results come back in task order whatever the completion
    order, and the first worker exception propagates — including
    :class:`~repro.resilience.deadline.DeadlineExceeded` and injected
    faults, which pickle back to the parent with their type intact.
    """
    workers = resolve_jobs(scan_jobs, n_items=len(tasks))
    if workers == 1 or len(tasks) <= 1:
        results = []
        scan = table.chunk_reader() if table is not None else nullcontext()
        with scan as reader:
            for task in tasks:
                checkpoint("store.partition")
                results.append(
                    worker(task) if table is None else worker(table, reader, task)
                )
        return results
    deadline = current_deadline()
    expiry = (
        (deadline.expires_at, deadline.budget) if deadline is not None else None
    )
    opener: dict = {}
    if table is not None:
        columns = table.column_names if table.is_projection() else None
        opener = {
            "initializer": _open_worker_table,
            "initargs": (str(table.root), columns, table.name),
        }
    with ProcessPoolExecutor(max_workers=workers, **opener) as executor:
        futures = [
            executor.submit(_run_in_worker, worker, task, expiry) for task in tasks
        ]
        results = [future.result() for future in futures]
    if table is None:
        return results
    table.add_worker_reads(sum(reads for _, reads in results))
    return [payload for payload, _ in results]


def run_selection_pass(
    span_name: str,
    worker: Callable,
    table: "Table | StoredTable",
    mask: np.ndarray,
    columns: tuple[str, ...],
    *extra: object,
) -> list:
    """Run ``worker`` over the partitions in which ``mask`` selects a row.

    Tasks are ``(columns, mask segment, start, stop, chunk_rows,
    *extra)``, one per partition holding a selected row; workers skip
    the chunks holding none (``scan_chunks(where=...)``).  The pass runs
    under a ``span_name`` span saying what it read and what it skipped.
    Returns the workers' payloads in partition order.
    """
    step = table.chunk_rows
    partitions = table.partitions
    with get_tracer().span(span_name) as span:
        live = [p for p in partitions if mask[p.start : p.stop].any()]
        results = run_partition_tasks(
            worker,
            [
                (columns, mask[p.start : p.stop], p.start, p.stop, step, *extra)
                for p in live
            ],
            table.scan_jobs,
            table=table,
        )
        chunks = sum(read for _, read in results)
        skipped = sum(-(-p.rows // step) for p in partitions) - chunks
        get_metrics().increment("blaeu_store_chunks_skipped_total", skipped)
        if span.enabled:
            span.set("rows_selected", int(np.count_nonzero(mask)))
            span.set("columns", len(columns))
            span.set("chunks", chunks)
            span.set("chunks_skipped", skipped)
            span.set("partitions", len(live))
            span.set("partitions_skipped", len(partitions) - len(live))
    return [payload for payload, _ in results]


def run_highlight_pass(
    table: "Table | StoredTable",
    predicate: "Predicate",
    inspect: tuple[str, ...],
    preview_cap: int,
) -> "MatchedRows":
    """The rows of ``table`` matching ``predicate``, collected for a
    highlight of the ``inspect`` columns in one scan.

    :func:`highlight_task` runs over every partition the zone maps
    cannot rule out; the partials merge in partition order, so each
    partition's preview over-collects up to ``preview_cap`` and the
    first matches overall are always present.  The pass is counted and
    timed as a store scan, under a ``store.highlight`` span.
    """
    from repro.core.navigation import MatchedRows

    started = time.perf_counter()
    with get_tracer().span("store.highlight") as span:
        live, skipped = table.prune_partitions(predicate)
        partials = run_partition_tasks(
            highlight_task,
            [
                (predicate, inspect, p.start, p.stop, table.chunk_rows, preview_cap)
                for p in live
            ],
            table.scan_jobs,
            table=table,
        )
        matched = MatchedRows()
        for partial, _ in partials:
            matched.extend(partial, preview_cap)
        if span.enabled:
            span.set("rows_selected", matched.n_rows)
            span.set("columns", len(inspect))
            span.set("chunks", sum(chunks for _, chunks in partials))
            span.set("partitions", len(live))
            span.set("partitions_skipped", skipped)
    metrics = get_metrics()
    metrics.increment("blaeu_store_partitions_scanned_total", len(live))
    metrics.increment("blaeu_store_scans_total")
    metrics.observe("blaeu_store_scan_seconds", time.perf_counter() - started)
    return matched


# ----------------------------------------------------------------------
# Workers (top-level, picklable; imports deferred to avoid cycles)
# ----------------------------------------------------------------------


def zones_task(task) -> dict:
    """Zone maps of one partition range: ``(root, columns, start, stop,
    chunk_rows)`` → ``{column: ColumnZone}``."""
    from pathlib import Path

    from repro.store.partitions import compute_zones

    root, columns, start, stop, chunk_rows = task
    return compute_zones(Path(root), columns, start, stop, chunk_rows)


def scan_mask_task(
    table: "Table | StoredTable", reader: "ChunkReader | None", task
) -> tuple[np.ndarray, int]:
    """Predicate mask of one partition range: ``(predicate, needed,
    start, stop, chunk_rows)`` → ``(mask segment, chunks)``."""
    predicate, needed, start, stop, chunk_rows = task
    out = np.empty(stop - start, dtype=bool)
    chunks = 0
    for lo, hi, chunk in table.scan_chunks(
        reader, needed, chunk_rows, start, stop
    ):
        out[lo - start : hi - start] = predicate.mask(chunk)
        chunks += 1
    return out, chunks


def router_task(
    table: "Table | StoredTable", reader: "ChunkReader | None", task
) -> tuple[np.ndarray, int]:
    """Tree-routing counts of one partition range: ``(needed, mask
    segment, start, stop, chunk_rows, tree_root)`` → how many selected
    rows reach each node, in :meth:`TreeNode.walk` order."""
    from repro.tree.cart import count_reaching

    needed, mask, start, stop, chunk_rows, tree_root = task
    counts = np.zeros(sum(1 for _ in tree_root.walk()), dtype=np.int64)
    chunks = 0
    for lo, hi, chunk in table.scan_chunks(
        reader, needed, chunk_rows, start, stop, where=mask
    ):
        checkpoint("count.chunk")
        counts += count_reaching(tree_root, chunk, mask[lo - start : hi - start])
        chunks += 1
    return counts, chunks


def highlight_task(
    table: "Table | StoredTable", reader: "ChunkReader | None", task
):
    """Highlight partials of one partition range: ``(predicate, inspect,
    start, stop, chunk_rows, preview_cap)`` → the
    :class:`~repro.core.navigation.MatchedRows` of the range, and the
    chunks scanned.

    One pass evaluates the predicate and collects the matches: each
    chunk reads the predicate's columns (the inspected ones when the
    predicate references none), and only a chunk in which a row matched
    reads the inspected columns the predicate does not reference.
    """
    from repro.core.navigation import MatchedRows

    predicate, inspect, start, stop, chunk_rows, preview_cap = task
    first = tuple(sorted(predicate.columns())) or inspect
    later = tuple(name for name in inspect if name not in first)
    matched = MatchedRows()
    chunks = 0
    for lo, hi, chunk in table.scan_chunks(reader, first, chunk_rows, start, stop):
        chunks += 1
        rows = predicate.mask(chunk)
        if not rows.any():
            continue
        if later:
            rest = table.read_chunk(reader, later, lo, hi)
        columns = {
            name: (chunk if name in first else rest).column(name)
            for name in inspect
        }
        matched.add(columns, rows, preview_cap)
    return matched, chunks


def nmi_task(table: "Table | StoredTable", reader: "ChunkReader | None", task):
    """Streaming-NMI contingencies of one partition range: ``(names,
    n_codes, entries, start, stop, chunk_rows)`` → the accumulated
    :class:`StreamingPairwiseNMI` count arrays."""
    from repro.graph.codes import code_matrix
    from repro.stats.batched import StreamingPairwiseNMI

    names, n_codes, entries, start, stop, chunk_rows = task
    streaming = StreamingPairwiseNMI(names, n_codes)
    chunks = 0
    for _, _, chunk in table.scan_chunks(
        reader, names, chunk_rows, start, stop
    ):
        checkpoint("graph.nmi.chunk")
        streaming.update(code_matrix(chunk, names, entries))
        chunks += 1
    return streaming.counts_state(), chunks
