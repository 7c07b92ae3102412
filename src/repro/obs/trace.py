"""Hierarchical tracing for the whole engine, without dependencies.

One request produces one *trace*: a tree of spans, each with a name,
monotonic start/duration, structured attributes, and ``trace_id`` /
``span_id`` / ``parent_id`` links.  The current span lives in a
:mod:`contextvars` variable, so parenting follows the flow of control —
across ``await`` points and into :class:`~repro.service.pool.WorkerPool`
threads — without any explicit plumbing at the call sites.

The tracer is **off by default** and the disabled path is engineered to
cost nothing: :meth:`Tracer.span` returns the module-level
:data:`NULL_SPAN` singleton — no allocation, no clock reads — and every
attribute write at an instrumentation site is guarded by
``span.enabled``.  Finished spans land in a bounded ring buffer
(:func:`group_traces` groups them for ``/trace`` and the CLI, whose
``blaeu trace --export`` writes them as JSONL for offline analysis),
and optionally feed a threshold-configurable slow-op log.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Iterable, Iterator

__all__ = [
    "NULL_SPAN",
    "Span",
    "Tracer",
    "collect_notes",
    "configure_tracing",
    "current_span",
    "format_fields",
    "get_tracer",
    "group_traces",
    "note",
    "render_trace",
    "set_tracer",
]

#: The span enclosing the current flow of control (``None`` outside any).
_CURRENT: ContextVar["Span | None"] = ContextVar(
    "blaeu_current_span", default=None
)

#: Structured side-channel fields for the innermost request (see
#: :func:`collect_notes`); ``None`` when nobody is listening.
_NOTES: ContextVar[dict | None] = ContextVar("blaeu_obs_notes", default=None)


def _new_id(n_bytes: int) -> str:
    return os.urandom(n_bytes).hex()


class Span:
    """One timed operation inside a trace.

    Spans are context managers: entering makes the span current (so
    spans opened inside parent to it), exiting records the duration and
    hands the span to its tracer's ring buffer.  ``attributes`` carries
    structured facts (cache hit/miss, row counts, chosen k); writers
    should guard attribute code behind :attr:`enabled` so instrumented
    hot paths stay free when tracing is off.
    """

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "wall_start",
        "start",
        "duration",
        "attributes",
        "_tracer",
        "_token",
    )

    #: Real spans record; the :data:`NULL_SPAN` stand-in does not.
    enabled = True

    def __init__(
        self, tracer: "Tracer", name: str, trace_id: str, parent_id: str | None
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = _new_id(4)
        self.parent_id = parent_id
        self.attributes: dict[str, object] = {}
        self.duration = 0.0
        self._tracer = tracer
        self._token = None
        self.wall_start = time.time()
        self.start = time.perf_counter()

    def set(self, key: str, value: object) -> None:
        """Attach one structured attribute."""
        self.attributes[key] = value

    def __enter__(self) -> "Span":
        self._token = _CURRENT.set(self)
        return self

    def __exit__(self, *exc_info: object) -> bool:
        self.duration = time.perf_counter() - self.start
        if self._token is not None:
            try:
                _CURRENT.reset(self._token)
            except ValueError:  # pragma: no cover - cross-context exit
                _CURRENT.set(None)
            self._token = None
        self._tracer._finish(self)
        return False

    def to_dict(self) -> dict[str, object]:
        """The span as a JSON-ready mapping (one JSONL record)."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.wall_start,
            "offset": self.start,
            "duration": self.duration,
            "attributes": dict(self.attributes),
        }


class _NullSpan:
    """The shared no-op span the disabled tracer hands out.

    A singleton: ``tracer.span(...)`` with tracing off allocates
    nothing, reads no clock, and every method is a constant no-op.
    """

    __slots__ = ()

    enabled = False
    name = ""
    trace_id = ""
    span_id = ""
    parent_id = None
    duration = 0.0
    attributes: dict[str, object] = {}

    def set(self, key: str, value: object) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False


#: The one disabled span every ``span()`` call returns when tracing is off.
NULL_SPAN = _NullSpan()


def _default_slow_sink(line: str) -> None:
    print(line, file=sys.stderr, flush=True)


class Tracer:
    """Span factory plus a bounded ring buffer of finished spans.

    Parameters
    ----------
    enabled:
        Master switch.  Off, :meth:`span` returns :data:`NULL_SPAN`.
    buffer_size:
        Finished spans retained (oldest evicted first).
    slow_op_threshold:
        Seconds; finished spans at or above it emit one structured
        slow-op line.  ``None`` disables the log.
    slow_op_sink:
        Where slow-op lines go (default: stderr).
    """

    def __init__(
        self,
        enabled: bool = False,
        buffer_size: int = 512,
        slow_op_threshold: float | None = None,
        slow_op_sink: Callable[[str], None] | None = None,
    ) -> None:
        if buffer_size < 1:
            raise ValueError("buffer_size must be at least 1")
        if slow_op_threshold is not None and slow_op_threshold <= 0:
            raise ValueError("slow_op_threshold must be positive (or None)")
        self.enabled = enabled
        self._spans: deque[Span] = deque(maxlen=buffer_size)
        self._lock = threading.Lock()
        self._slow_threshold = slow_op_threshold
        self._slow_sink = slow_op_sink or _default_slow_sink

    def span(self, name: str):
        """Open a span (enter it with ``with``); no-op when disabled.

        The parent is the context-local current span, so the call sites
        never thread span objects around.
        """
        if not self.enabled:
            return NULL_SPAN
        current = _CURRENT.get()
        if current is not None and current.enabled:
            return Span(self, name, current.trace_id, current.span_id)
        return Span(self, name, _new_id(8), None)

    def _finish(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)
        threshold = self._slow_threshold
        if threshold is not None and span.duration >= threshold:
            self._slow_sink(
                format_fields(
                    "slow_op",
                    name=span.name,
                    duration_ms=round(span.duration * 1000.0, 3),
                    trace=span.trace_id,
                    span=span.span_id,
                )
            )

    # ------------------------------------------------------------------
    # Reading the buffer
    # ------------------------------------------------------------------

    def spans(self) -> list[Span]:
        """A snapshot of the retained spans, oldest first."""
        with self._lock:
            return list(self._spans)

    def reset(self) -> None:
        """Drop all retained spans."""
        with self._lock:
            self._spans.clear()

    def traces(self, limit: int = 10) -> list[dict[str, object]]:
        """The most recent ``limit`` traces, newest first (the
        ``/trace`` endpoint's payload; see :func:`group_traces`)."""
        return group_traces([span.to_dict() for span in self.spans()], limit)


def group_traces(
    spans: Iterable[dict[str, object]], limit: int
) -> list[dict[str, object]]:
    """Group span records (:meth:`Span.to_dict`) into the most recent
    ``limit`` traces, newest first.

    Each entry is ``{"trace_id", "spans"}`` with the spans in start
    order.  A record re-read from a JSONL export may lack fields: one
    without a ``trace_id`` groups under ``"?"``, one without an
    ``offset`` sorts first.
    """
    if limit < 1:
        raise ValueError("limit must be at least 1")
    grouped: dict[str, list[dict[str, object]]] = {}
    for span in spans:
        grouped.setdefault(str(span.get("trace_id", "?")), []).append(span)
    return [
        {
            "trace_id": trace_id,
            "spans": sorted(
                grouped[trace_id], key=lambda s: s.get("offset", 0.0)
            ),
        }
        for trace_id in reversed(list(grouped)[-limit:])
    ]


# ----------------------------------------------------------------------
# The process-global tracer
# ----------------------------------------------------------------------

_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-global tracer (disabled until configured)."""
    return _TRACER


def set_tracer(tracer: Tracer) -> Tracer:
    """Install ``tracer`` as the process-global tracer."""
    global _TRACER
    _TRACER = tracer
    return tracer


def configure_tracing(
    enabled: bool = True,
    buffer_size: int = 512,
    slow_op_threshold: float | None = None,
) -> Tracer:
    """Replace the global tracer with a freshly configured one."""
    return set_tracer(
        Tracer(
            enabled=enabled,
            buffer_size=buffer_size,
            slow_op_threshold=slow_op_threshold,
        )
    )


def current_span() -> Span | None:
    """The context-local current span (``None`` outside any)."""
    return _CURRENT.get()


# ----------------------------------------------------------------------
# Structured lines and request notes
# ----------------------------------------------------------------------


def format_fields(event: str, **fields: object) -> str:
    """One structured ``event key=value …`` line (logfmt-style).

    Shared by the access log and the slow-op log so both stay grep- and
    machine-parseable; values containing spaces, quotes or ``=`` are
    quoted with inner quotes escaped.
    """
    parts = [event]
    for key, value in fields.items():
        text = str(value)
        if not text or any(c in text for c in ' "=\n'):
            text = '"' + text.replace('"', '\\"').replace("\n", "\\n") + '"'
        parts.append(f"{key}={text}")
    return " ".join(parts)


@contextmanager
def collect_notes() -> Iterator[dict[str, object]]:
    """Collect :func:`note` calls made anywhere under this context.

    The serving layer opens this around a request so deep layers (the
    map builder reporting its cache outcome) can annotate the access-log
    line without knowing the service exists.  The dict travels by
    reference through context copies, so notes written on worker
    threads land in the originating request's mapping.
    """
    fields: dict[str, object] = {}
    token = _NOTES.set(fields)
    try:
        yield fields
    finally:
        _NOTES.reset(token)


def note(key: str, value: object) -> None:
    """Record one field for whoever opened :func:`collect_notes` (if anyone)."""
    fields = _NOTES.get()
    if fields is not None:
        fields[key] = value


# ----------------------------------------------------------------------
# Rendering (the ``blaeu trace`` CLI and tests)
# ----------------------------------------------------------------------


def render_trace(trace: dict[str, object]) -> str:
    """A text tree of one trace, slowest span marked.

    ``trace`` is one entry of :meth:`Tracer.traces` (or the same shape
    re-read from JSONL/the ``/trace`` endpoint).
    """
    spans = list(trace.get("spans", []))  # type: ignore[arg-type]
    if not spans:
        return f"trace {trace.get('trace_id', '?')}: no spans retained"
    by_parent: dict[str | None, list[dict]] = {}
    span_ids = {span["span_id"] for span in spans}
    for span in spans:
        parent = span.get("parent_id")
        if parent not in span_ids:
            parent = None  # orphan (parent evicted): show at top level
        by_parent.setdefault(parent, []).append(span)
    slowest = max(spans, key=lambda s: s["duration"])
    lines = [f"trace {trace['trace_id']} ({len(spans)} spans)"]

    def emit(parent: str | None, depth: int) -> None:
        for span in sorted(
            by_parent.get(parent, []), key=lambda s: s["offset"]
        ):
            marker = "  ◀ slowest" if span is slowest else ""
            attributes = span.get("attributes") or {}
            suffix = (
                " [" + ", ".join(f"{k}={v}" for k, v in attributes.items()) + "]"
                if attributes
                else ""
            )
            lines.append(
                f"{'  ' * depth}- {span['name']} "
                f"{span['duration'] * 1000.0:.1f} ms{suffix}{marker}"
            )
            emit(span["span_id"], depth + 1)

    emit(None, 1)
    return "\n".join(lines)
