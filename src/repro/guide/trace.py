"""Navigation traces: record real click streams, replay them on demand.

Prefetch effectiveness is only measurable against a *realistic* action
sequence — synthetic uniform-random navigation over-rewards any cache
and under-rewards ranking quality.  A :class:`TraceRecorder` attaches
to one or more :class:`~repro.core.navigation.Explorer` sessions
(observer hook, zero cost when detached) and records every completed
action as a ``(session, action, target, fingerprint)`` step; the
resulting :class:`NavigationTrace` round-trips through JSONL so traces
can be checked in, and :func:`replay_trace` drives a fresh explorer
through the same steps — with or without a prefetcher running — to
compare cache hit rates on identical work.

The table *fingerprint* is recorded per step so a replayer can refuse
to replay a trace against different data (the cache keys would never
match and the measured hit rate would be meaningless).
"""

from __future__ import annotations

import json
import threading
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.navigation import Explorer

__all__ = [
    "NavigationTrace",
    "TraceRecorder",
    "TraceStep",
    "replay_trace",
]

#: Actions a recorded step may carry (the Explorer observer vocabulary).
ACTIONS = (
    "open_theme",
    "open_columns",
    "zoom",
    "project",
    "project_columns",
    "rollback",
    "goto",
)


@dataclass(frozen=True)
class TraceStep:
    """One recorded navigation action."""

    session: str
    action: str
    target: str
    fingerprint: str

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ValueError(
                f"unknown trace action {self.action!r}; "
                f"expected one of {list(ACTIONS)}"
            )


@dataclass(frozen=True)
class NavigationTrace:
    """An ordered sequence of recorded steps (possibly many sessions)."""

    steps: tuple[TraceStep, ...]

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)

    def sessions(self) -> tuple[str, ...]:
        """Distinct session ids, in order of first appearance."""
        seen: dict[str, None] = {}
        for step in self.steps:
            seen.setdefault(step.session, None)
        return tuple(seen)

    def for_session(self, session: str) -> "NavigationTrace":
        """The sub-trace of one session, order preserved."""
        return NavigationTrace(
            steps=tuple(s for s in self.steps if s.session == session)
        )

    def save(self, path: str | Path) -> Path:
        """Write the trace as JSONL (one step per line); returns the path."""
        path = Path(path)
        lines = [json.dumps(asdict(step), sort_keys=True) for step in self.steps]
        path.write_text("\n".join(lines) + ("\n" if lines else ""))
        return path

    @classmethod
    def load(cls, path: str | Path) -> "NavigationTrace":
        """Read a JSONL trace written by :meth:`save`."""
        steps: list[TraceStep] = []
        for line in Path(path).read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            raw = json.loads(line)
            steps.append(
                TraceStep(
                    session=str(raw["session"]),
                    action=str(raw["action"]),
                    target=str(raw["target"]),
                    fingerprint=str(raw["fingerprint"]),
                )
            )
        return cls(steps=tuple(steps))


class TraceRecorder:
    """Collects steps from live explorer sessions (thread-safe).

    One recorder can observe many sessions at once — the service
    attaches it per session id, the CLI shell under a fixed id.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._steps: list[TraceStep] = []

    def record(
        self, session: str, action: str, target: str, fingerprint: str
    ) -> None:
        """Append one step (validated by :class:`TraceStep`)."""
        step = TraceStep(
            session=session,
            action=action,
            target=target,
            fingerprint=fingerprint,
        )
        with self._lock:
            self._steps.append(step)

    def attach(
        self, explorer: "Explorer", session: str
    ) -> Callable[[], None]:
        """Observe one explorer; returns a detach callable."""
        fingerprint = explorer.table.fingerprint()

        def observer(action: str, target: str) -> None:
            self.record(session, action, target, fingerprint)

        explorer.add_observer(observer)

        def detach() -> None:
            explorer.remove_observer(observer)

        return detach

    def __len__(self) -> int:
        with self._lock:
            return len(self._steps)

    def trace(self) -> NavigationTrace:
        """A snapshot of everything recorded so far."""
        with self._lock:
            return NavigationTrace(steps=tuple(self._steps))


def replay_trace(
    explorer: "Explorer",
    trace: NavigationTrace,
    session: str | None = None,
    on_step: Callable[[TraceStep], None] | None = None,
) -> int:
    """Drive ``explorer`` through a recorded trace; returns steps applied.

    With ``session``, only that session's steps are replayed.  Every
    step's fingerprint must match the explorer's table — replaying a
    trace against different data would measure nothing.  ``on_step``
    (called *after* each applied action) is the caller's hook for
    per-step measurements.
    """
    fingerprint = explorer.table.fingerprint()
    applied = 0
    for step in trace:
        if session is not None and step.session != session:
            continue
        if step.fingerprint != fingerprint:
            raise ValueError(
                f"trace step {step.action!r} was recorded against table "
                f"fingerprint {step.fingerprint[:12]}…, but the explorer's "
                f"table has {fingerprint[:12]}…"
            )
        _apply(explorer, step)
        applied += 1
        if on_step is not None:
            on_step(step)
    return applied


def _apply(explorer: "Explorer", step: TraceStep) -> None:
    if step.action == "open_theme":
        explorer.open_theme(step.target)
    elif step.action == "open_columns":
        explorer.open_columns(tuple(step.target.split(",")))
    elif step.action == "zoom":
        explorer.zoom(step.target)
    elif step.action == "project":
        explorer.project(step.target)
    elif step.action == "project_columns":
        explorer.project_columns(tuple(step.target.split(",")))
    elif step.action == "rollback":
        explorer.rollback()
    elif step.action == "goto":
        explorer.goto(int(step.target))
    else:  # pragma: no cover - TraceStep validates on construction
        raise ValueError(f"unknown trace action {step.action!r}")
