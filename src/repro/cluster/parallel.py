"""Deterministic fan-out helpers (the ``*_jobs`` convention).

The batched NMI kernel behind the dependency graph (``graph_jobs``) fans
its left columns out over a thread pool: the work is pure NumPy, which
releases the GIL inside the heavy kernels, so threads need no pickling
of the code matrix into worker processes.  Store scans resolve their
``scan_jobs`` width through :func:`resolve_jobs` too.

The helpers here keep parallel execution *bit-identical* to serial: work
items are dispatched with their index and results are re-assembled in
submission order, so downstream "first best wins" tie-breaking sees the
exact sequence the serial loop would.
"""

from __future__ import annotations

import contextvars
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

from repro.resilience.deadline import checkpoint

__all__ = ["resolve_jobs", "map_in_order"]

T = TypeVar("T")
R = TypeVar("R")


def resolve_jobs(n_jobs: int | None, n_items: int | None = None) -> int:
    """Turn an ``n_jobs`` knob into a concrete worker count.

    ``None`` or ``1`` mean serial; ``0`` (and any negative value) means
    "all available cores".  The result is clamped to ``n_items`` when
    given — more workers than work is pure overhead.
    """
    if n_jobs is None:
        workers = 1
    elif n_jobs <= 0:
        workers = os.cpu_count() or 1
    else:
        workers = n_jobs
    if n_items is not None:
        workers = min(workers, max(n_items, 1))
    return max(workers, 1)


def map_in_order(
    fn: Callable[[T], R], items: Sequence[T], n_jobs: int | None = None
) -> list[R]:
    """``[fn(item) for item in items]``, optionally on a thread pool.

    Results come back in *submission order* regardless of completion
    order, and any worker exception propagates to the caller.  With one
    worker (or one item) this is a plain loop — no pool, no overhead —
    which also guarantees the serial path stays the reference behaviour.

    Each work item runs under its own copy of the caller's
    :mod:`contextvars` context (a single context cannot be entered by
    two threads at once), so context-local state — above all the
    current trace span — flows into the workers: spans opened inside
    ``fn`` parent to whatever span was current at the call site.
    """
    workers = resolve_jobs(n_jobs, n_items=len(items))
    if workers == 1 or len(items) <= 1:
        results = []
        for item in items:
            # Per-item deadline checkpoint: work aborts between items,
            # never mid-kernel.
            checkpoint("parallel.item")
            results.append(fn(item))
        return results
    contexts = [contextvars.copy_context() for _ in items]

    def checked(item: T) -> R:
        checkpoint("parallel.item")
        return fn(item)

    def run(pair: tuple[contextvars.Context, T]) -> R:
        context, item = pair
        return context.run(checked, item)

    with ThreadPoolExecutor(max_workers=workers) as executor:
        return list(executor.map(run, zip(contexts, items)))
