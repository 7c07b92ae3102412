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

The threads take jobs most recently idle first (:class:`_LifoExecutor`):
a thread that finishes a job goes back on top of the idle stack before
its result is published, so the next request of a client that waits
for each answer runs on the same warm thread — its stack, its caches
and its one malloc arena — and an idle second thread stays cold instead
of growing an arena of its own.
"""

from __future__ import annotations

import asyncio
import contextvars
import queue
import threading
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, Callable, TypeVar

from repro.obs.metrics import get_metrics
from repro.obs.trace import Span, get_tracer
from repro.resilience.deadline import DeadlineExceeded, current_deadline
from repro.resilience.faults import fault_point

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


#: A job: its future, the callable and its arguments.
_Job = tuple[Future, Callable[..., Any], tuple]

#: What a thread does after a job when the backlog is empty: wait idle.
_IDLE = object()


class _LifoExecutor:
    """Up to ``threads`` threads, started on demand, that take jobs from
    a stack of idle threads: the most recently idle thread runs the next
    job.

    A submitted job goes to the thread on top of the idle stack, else
    to a new thread while fewer than ``threads`` run, else to the
    backlog, which a thread drains before it goes idle.  Each check of
    the idle stack and the act on it happen under one lock, as does
    the closed check of :meth:`submit` and :meth:`shutdown`; the
    ``pool.submit`` and ``pool.idle`` fault points sit just before them.
    """

    def __init__(self, threads: int, name: str) -> None:
        self._threads_max = threads
        self._name = name
        self._lock = threading.Lock()
        self._idle: list[queue.SimpleQueue] = []  # each idle thread's inbox
        self._backlog: deque[_Job] = deque()
        self._threads: list[threading.Thread] = []
        self._closed = False

    def submit(self, fn: Callable[..., Any], *args: Any) -> Future:
        """Schedule ``fn(*args)``; raises ``RuntimeError`` after shutdown."""
        future: Future = Future()
        job = (future, fn, args)
        fault_point("pool.submit")
        with self._lock:
            if self._closed:
                raise RuntimeError("cannot schedule new jobs after shutdown")
            if self._idle:
                self._idle.pop().put(job)
            elif len(self._threads) < self._threads_max:
                inbox: queue.SimpleQueue = queue.SimpleQueue()
                inbox.put(job)
                thread = threading.Thread(
                    target=self._work,
                    args=(inbox,),
                    name=f"{self._name}_{len(self._threads)}",
                    daemon=True,
                )
                thread.start()
                self._threads.append(thread)
            else:
                self._backlog.append(job)
        return future

    def _work(self, inbox: queue.SimpleQueue) -> None:
        job = inbox.get()
        while job is not None:
            job = self._run(inbox, *job)
            if job is _IDLE:
                job = inbox.get()

    def _run(
        self,
        inbox: queue.SimpleQueue,
        future: Future,
        fn: Callable[..., Any],
        args: tuple,
    ) -> object:
        """Run one job and return what the thread does next: the
        backlog's head, wait idle (:data:`_IDLE`) or exit (``None``).

        The thread is back on the idle stack before the result is
        published, so the submission that result unblocks finds it
        there.  The job's references die with this frame, before the
        thread waits for the next one.
        """
        outcome = None
        if future.set_running_or_notify_cancel():
            try:
                outcome = (fn(*args), None)
                fault_point("pool.idle")
            # As concurrent.futures does: whatever the job raises is
            # its caller's, delivered through the future, and the
            # thread lives on to serve the next job.
            except BaseException as error:
                outcome = (None, error)
        with self._lock:
            if self._backlog:
                following: object = self._backlog.popleft()
            elif self._closed:
                following = None
            else:
                self._idle.append(inbox)
                following = _IDLE
        if outcome is not None:
            result, error = outcome
            if error is None:
                future.set_result(result)
            else:
                future.set_exception(error)
        return following

    def shutdown(self, wait: bool) -> None:
        """Refuse new jobs; idle threads exit, busy ones once the backlog
        is drained.  ``wait`` joins every thread."""
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
            threads = list(self._threads)
        for inbox in idle:
            inbox.put(None)
        if wait:
            for thread in threads:
                thread.join()


def _started(waiting: Span, fn: Callable[..., T], *args: Any) -> T:
    """End the job's ``pool.wait`` span as it starts, then run it."""
    waiting.__exit__(None, None, None)
    return fn(*args)


class WorkerPool:
    """A thread pool with admission control and async submission.

    Parameters
    ----------
    workers:
        Threads executing jobs concurrently; the most recently idle one
        takes the next job.
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
        self._executor = _LifoExecutor(workers, "blaeu-worker")
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
            # request span that scheduled them; a traced job's wait for
            # a thread is its ``pool.wait`` span.
            context = contextvars.copy_context()
            tracer = get_tracer()
            if tracer.enabled:
                fn, args = _started, (tracer.span("pool.wait"), fn, *args)
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
