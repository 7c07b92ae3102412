"""A bounded worker pool that keeps slow work off the event loop.

Map construction (CLARA/PAM + CART) takes tens to hundreds of
milliseconds — far too long to run on the asyncio event loop, where it
would stall every connected client.  :class:`WorkerPool` runs such work
on a small thread pool with an explicit admission bound: when
``max_pending`` jobs are already in flight the pool *refuses* new work
(:class:`PoolSaturatedError`) instead of queueing unboundedly, which
the HTTP layer translates to ``503`` — load shedding, not latency
collapse.  Its outcomes are counted in the process-global metrics
registry alone (``blaeu_pool_{completed,failed,rejected}_total`` and
``blaeu_resilience_pool_deadline_shed_total``); the pool keeps only the
load it admits on.
"""

from __future__ import annotations

import asyncio
import contextvars
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, TypeVar

from repro.obs.metrics import get_metrics
from repro.resilience.deadline import DeadlineExceeded, current_deadline

__all__ = ["PoolSaturatedError", "PoolStats", "WorkerPool"]

T = TypeVar("T")


class PoolSaturatedError(RuntimeError):
    """The pool is at its admission limit; shed the request."""


@dataclass(frozen=True)
class PoolStats:
    """A point-in-time snapshot of pool load."""

    workers: int
    in_flight: int
    background_in_flight: int


class WorkerPool:
    """A ThreadPoolExecutor with admission control and async submission.

    Parameters
    ----------
    workers:
        Threads executing jobs concurrently.
    max_pending:
        Maximum jobs admitted at once (running + queued).  Submissions
        beyond it raise :class:`PoolSaturatedError` immediately.
    """

    def __init__(self, workers: int = 4, max_pending: int = 64) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if max_pending < workers:
            raise ValueError("max_pending must be >= workers")
        self._workers = workers
        self._max_pending = max_pending
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="blaeu-worker"
        )
        self._lock = threading.Lock()
        self._in_flight = 0
        self._background_in_flight = 0
        self._closed = False
        # Each outcome counter renders from the start, at zero.
        for outcome in ("completed", "failed", "rejected"):
            get_metrics().increment(f"blaeu_pool_{outcome}_total", 0)
        get_metrics().increment("blaeu_resilience_pool_deadline_shed_total", 0)

    async def run(
        self, fn: Callable[..., T], *args: Any, background: bool = False
    ) -> T:
        """Run ``fn(*args)`` on a worker thread; await its result.

        Raises :class:`PoolSaturatedError` when the admission bound is
        reached and ``RuntimeError`` after :meth:`shutdown`.

        ``background=True`` marks the job *speculative*: it is admitted
        only onto an **idle** worker thread (``in_flight < workers``),
        so background work never queues ahead of — or behind, or at all
        with — foreground requests.  A foreground submission arriving
        while every thread is busy with background jobs still waits only
        for a thread to free, exactly as it would behind foreground
        work; what speculation can never do is consume the *admission*
        headroom between ``workers`` and ``max_pending`` that foreground
        bursts rely on.
        """
        # Shed before queueing: a request whose deadline already passed
        # (or would pass while it waits behind a full complement of
        # running jobs) gains nothing from a pool slot.  Background jobs
        # are exempt — they install their own deadline on the worker
        # thread and must not be judged by an inherited foreground one.
        if not background:
            deadline = current_deadline()
            if deadline is not None and deadline.expired():
                get_metrics().increment(
                    "blaeu_resilience_pool_deadline_shed_total"
                )
                raise DeadlineExceeded(
                    f"deadline of {deadline.budget:.3f}s expired before "
                    "the job reached the pool",
                    stage="pool.admit",
                    budget=deadline.budget,
                )
        with self._lock:
            if self._closed:
                raise RuntimeError("worker pool is shut down")
            if background and self._in_flight >= self._workers:
                raise PoolSaturatedError(
                    f"no idle worker for background job "
                    f"({self._in_flight} jobs in flight, "
                    f"{self._workers} workers)"
                )
            if self._in_flight >= self._max_pending:
                get_metrics().increment("blaeu_pool_rejected_total")
                raise PoolSaturatedError(
                    f"worker pool saturated ({self._in_flight} jobs in "
                    f"flight, limit {self._max_pending})"
                )
            # Submit while still holding the lock so a concurrent
            # shutdown() cannot slip between the check and the submit.
            # The job runs under a copy of the submitter's context, so
            # trace spans opened on the worker thread parent to the
            # request span that scheduled them.
            context = contextvars.copy_context()
            try:
                future = self._executor.submit(context.run, fn, *args)
            except RuntimeError as error:
                raise RuntimeError("worker pool is shut down") from error
            self._in_flight += 1
            if background:
                self._background_in_flight += 1
        outcome = "failed"
        try:
            result = await asyncio.wrap_future(future)
            outcome = "completed"
        finally:
            # Counted before the slot is released: whoever sees the pool
            # idle sees the job counted too.
            get_metrics().increment(f"blaeu_pool_{outcome}_total")
            with self._lock:
                self._in_flight -= 1
                if background:
                    self._background_in_flight -= 1
        return result

    def stats(self) -> PoolStats:
        """A consistent snapshot of the pool load."""
        with self._lock:
            return PoolStats(
                workers=self._workers,
                in_flight=self._in_flight,
                background_in_flight=self._background_in_flight,
            )

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work and (optionally) wait for running jobs."""
        with self._lock:
            self._closed = True
        self._executor.shutdown(wait=wait)
