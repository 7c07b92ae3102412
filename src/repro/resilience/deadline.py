"""Per-request deadlines carried through the stack via contextvars.

A :class:`Deadline` is an absolute expiry on the monotonic clock plus
the budget it was minted with.  The service sets one per request (from
the ``X-Blaeu-Deadline`` header or ``ServiceConfig.resilience``) and it
rides into worker threads for free: :meth:`WorkerPool.run` submits jobs
under ``contextvars.copy_context()``, so a deadline set in the request
coroutine is visible at every cooperative :func:`checkpoint` below it.

Checkpoints are placed at stage boundaries and inside chunked loops
(store scans, the NMI kernel's rows and streamed chunks, each CLARA
run).  When no deadline is set the
checkpoint is a single contextvar read — cheap enough for per-chunk use.

Background work (count refinement, speculative prefetch) must *not*
inherit the foreground request's deadline: a prefetch build that starts
with 50ms left would abort pointlessly.  Such tasks call
:func:`clear_deadline` (or open their own :func:`deadline_scope`) first.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable, Iterator

__all__ = [
    "Deadline",
    "DeadlineExceeded",
    "checkpoint",
    "clear_deadline",
    "current_deadline",
    "deadline_scope",
    "set_deadline",
]


class DeadlineExceeded(RuntimeError):
    """Raised by :func:`checkpoint` when the current deadline has passed.

    The service maps this to a structured HTTP 504; background workers
    treat it as a cancellation, not an error.
    """

    def __init__(self, message: str, *, stage: str = "", budget: float | None = None):
        super().__init__(message)
        self.stage = stage
        self.budget = budget

    def __reduce__(self):
        # Default exception pickling drops keyword-only attributes; a
        # deadline abort raised inside a partition worker process must
        # reach the parent with its stage and budget intact (the
        # service's 504 Retry-After hint reads them).
        return (
            _rebuild_deadline_exceeded,
            (str(self), self.stage, self.budget),
        )


def _rebuild_deadline_exceeded(
    message: str, stage: str, budget: float | None
) -> "DeadlineExceeded":
    return DeadlineExceeded(message, stage=stage, budget=budget)


@dataclass(frozen=True)
class Deadline:
    """An absolute expiry on the monotonic clock.

    ``budget`` is the span the deadline was minted with — kept for error
    messages and ``Retry-After`` hints, never for expiry math.
    """

    expires_at: float
    budget: float

    @classmethod
    def after(
        cls, budget: float, *, clock: Callable[[], float] = time.monotonic
    ) -> "Deadline":
        return cls(expires_at=clock() + budget, budget=budget)

    def remaining(self, *, clock: Callable[[], float] = time.monotonic) -> float:
        """Seconds until expiry; negative once past it."""
        return self.expires_at - clock()

    def expired(self, *, clock: Callable[[], float] = time.monotonic) -> bool:
        return self.remaining(clock=clock) <= 0.0


_DEADLINE: ContextVar[Deadline | None] = ContextVar("blaeu_deadline", default=None)


def current_deadline() -> Deadline | None:
    return _DEADLINE.get()


def set_deadline(deadline: Deadline | None):
    """Install ``deadline`` in the current context; returns the reset token."""
    return _DEADLINE.set(deadline)


def reset_deadline(token) -> None:
    _DEADLINE.reset(token)


def clear_deadline() -> None:
    """Drop any inherited deadline in the current context.

    Called at the top of background tasks (refine, prefetch) whose
    context was copied from a foreground request.
    """
    _DEADLINE.set(None)


@contextmanager
def deadline_scope(
    budget: float | None, *, clock: Callable[[], float] = time.monotonic
) -> Iterator[Deadline | None]:
    """Run the body under a fresh deadline of ``budget`` seconds.

    ``budget=None`` clears any inherited deadline for the scope instead
    — the "no deadline" scope used by tests and maintenance paths.
    """
    deadline = None if budget is None else Deadline.after(budget, clock=clock)
    token = _DEADLINE.set(deadline)
    try:
        yield deadline
    finally:
        _DEADLINE.reset(token)


def checkpoint(stage: str = "", *, clock: Callable[[], float] = time.monotonic) -> None:
    """Raise :class:`DeadlineExceeded` if the current deadline has passed.

    No-op (one contextvar read) when no deadline is installed, so it is
    safe inside per-chunk loops.
    """
    deadline = _DEADLINE.get()
    if deadline is None:
        return
    if deadline.expires_at - clock() <= 0.0:
        where = f" at {stage}" if stage else ""
        raise DeadlineExceeded(
            f"deadline of {deadline.budget:.3f}s exceeded{where}",
            stage=stage,
            budget=deadline.budget,
        )
