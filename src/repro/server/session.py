"""Session management and request dispatch.

A :class:`Session` wraps one :class:`~repro.core.navigation.Explorer`;
the :class:`SessionManager` owns the engine, creates sessions on
``open``, routes every protocol command to the right session and renders
results as JSON payloads.  A map or theme list rides in its payload as
the text :mod:`repro.viz.export` encoded once and kept with it
(:class:`~repro.server.protocol.JsonText`), which the response encoder
splices: a map served again is never encoded again.  Engine-side
failures never crash the dispatcher: they come back as
:class:`~repro.server.protocol.ErrorResponse`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.core.datamap import DataMap
from repro.core.engine import Blaeu
from repro.core.navigation import Explorer, Highlight
from repro.core.pipeline import MapBuildError
from repro.server.protocol import (
    COMMANDS,
    ErrorResponse,
    JsonText,
    ProtocolError,
    Request,
    Response,
    parse_request,
)
from repro.viz.export import export_map_json, export_themes_json

__all__ = ["Session", "SessionManager"]


@dataclass
class Session:
    """One user's exploration session."""

    session_id: str
    table_name: str
    explorer: Explorer
    #: Serializes commands against this session: the Explorer's state
    #: stack is not safe under concurrent mutation.
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)


class SessionManager:
    """Dispatches protocol requests onto engine sessions.

    Dispatch is thread-safe: the session registry is guarded by one
    lock, each session carries its own lock, and commands against
    *different* sessions run concurrently — the serving layer's worker
    pool relies on that to overlap slow map builds across clients.

    Known limitation: commands against the *same* session serialize on
    its lock while occupying a worker thread each, so one client
    pipelining many commands at one session can tie up several workers.
    Per-session work queues (one worker slot per session) are the
    planned fix when sharding lands.
    """

    def __init__(self, engine: Blaeu) -> None:
        self._engine = engine
        self._sessions: dict[str, Session] = {}
        self._lock = threading.RLock()
        self._reserved: set[str] = set()

    @property
    def engine(self) -> Blaeu:
        """The underlying engine."""
        return self._engine

    def session_ids(self) -> tuple[str, ...]:
        """Active session ids."""
        with self._lock:
            return tuple(self._sessions)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def handle_json(self, text: str) -> str:
        """Wire-format entry point: JSON line in, JSON line out."""
        try:
            request = parse_request(text)
        except ProtocolError as error:
            return ErrorResponse(error=str(error)).to_json()
        return self.handle(request).to_json()

    def handle(self, request: Request) -> Response | ErrorResponse:
        """Dispatch one parsed request."""
        handler = getattr(self, f"_handle_{request.command}", None)
        if handler is None:  # pragma: no cover - parse_request guards this
            return ErrorResponse(
                error=f"unhandled command {request.command!r}",
                command=request.command,
            )
        try:
            if "session" in COMMANDS.get(request.command, ()) and (
                request.command not in ("open", "close")
            ):
                session = self._require(request)
                with session.lock:
                    # Re-verify under the lock: a concurrent close +
                    # reopen may have replaced the id with a *new*
                    # session guarded by a different lock.
                    with self._lock:
                        if self._sessions.get(session.session_id) is not session:
                            raise KeyError(
                                f"no session {session.session_id!r}; it was "
                                "closed concurrently"
                            )
                    return handler(request)
            return handler(request)
        except MapBuildError as error:
            # A request the map pipeline rejects as posed (no active
            # columns, nothing to cluster): structurally a client
            # error, surfaced with a machine-readable code so the HTTP
            # layer can answer 400 without prose-matching.
            return ErrorResponse(
                error=str(error),
                command=request.command,
                code="map_build_invalid",
            )
        except (KeyError, ValueError, RuntimeError) as error:
            return ErrorResponse(error=str(error), command=request.command)

    # ------------------------------------------------------------------
    # Command handlers
    # ------------------------------------------------------------------

    def _handle_tables(self, request: Request) -> Response:
        return Response({"tables": list(self._engine.tables())})

    def _handle_catalog(self, request: Request) -> Response:
        return Response({"catalog": self._engine.database.catalog()})

    def _handle_themes(self, request: Request) -> Response:
        table = request.arg("table")
        themes = self._engine.themes(table)
        return Response(
            {"table": table, "themes": JsonText(export_themes_json(themes))}
        )

    def _handle_open(self, request: Request) -> Response:
        session_id = request.arg("session")
        table = request.arg("table")
        with self._lock:
            if session_id in self._sessions or session_id in self._reserved:
                raise ValueError(f"session {session_id!r} already exists")
            # Reserve the id so a concurrent open of the same id fails
            # fast instead of racing; the map build runs unlocked.
            self._reserved.add(session_id)
        try:
            explorer = self._engine.explore(table)
            data_map = explorer.open_theme(request.arg("theme"))
            with self._lock:
                self._sessions[session_id] = Session(
                    session_id=session_id, table_name=table, explorer=explorer
                )
        finally:
            with self._lock:
                self._reserved.discard(session_id)
        return _map_response(session_id, data_map)

    def _handle_map(self, request: Request) -> Response:
        session = self._require(request)
        return _map_response(session.session_id, session.explorer.state.map)

    def _handle_zoom(self, request: Request) -> Response:
        session = self._require(request)
        region = request.arg("region")
        return _map_response(session.session_id, session.explorer.zoom(region))

    def _handle_project(self, request: Request) -> Response:
        session = self._require(request)
        data_map = session.explorer.project(request.arg("theme"))
        return _map_response(session.session_id, data_map)

    def _handle_highlight(self, request: Request) -> Response:
        session = self._require(request)
        columns = request.arg("columns")
        highlight = session.explorer.highlight(
            request.arg("region"), columns=tuple(columns) if columns else None
        )
        return Response(
            {"session": session.session_id, "highlight": _highlight_payload(highlight)}
        )

    def _handle_rollback(self, request: Request) -> Response:
        session = self._require(request)
        return _map_response(session.session_id, session.explorer.rollback())

    def _handle_sql(self, request: Request) -> Response:
        session = self._require(request)
        sql = session.explorer.sql(request.arg("region"))
        return Response({"session": session.session_id, "sql": sql})

    def _handle_history(self, request: Request) -> Response:
        session = self._require(request)
        return Response(
            {
                "session": session.session_id,
                "history": list(session.explorer.history()),
            }
        )

    def _handle_suggest(self, request: Request) -> Response:
        session = self._require(request)
        limit = request.arg("limit")
        if limit is None:
            limit = 5
        elif limit < 1:
            raise ValueError("'limit' must be a positive integer")
        suggestions = session.explorer.suggest(limit=limit)
        return Response(
            {
                "session": session.session_id,
                "suggestions": [
                    {
                        "action": s.action,
                        "target": s.target,
                        "score": round(s.score, 6),
                        "reason": s.reason,
                    }
                    for s in suggestions
                ],
            }
        )

    def _handle_close(self, request: Request) -> Response:
        session_id = request.arg("session")
        with self._lock:
            session = self._sessions.get(session_id)
            if session is None:
                raise KeyError(f"no session {session_id!r}")
        # Wait for any in-flight command on the session before removing
        # it, so close never yanks an explorer out from under a zoom.
        with session.lock:
            with self._lock:
                if self._sessions.get(session_id) is not session:
                    raise KeyError(
                        f"no session {session_id!r}; it was closed "
                        "concurrently"
                    )
                del self._sessions[session_id]
        return Response({"closed": session_id})

    # ------------------------------------------------------------------
    # Count refinement (the service's background exact-count pass)
    # ------------------------------------------------------------------

    def needs_refine(self, session_id: str) -> bool:
        """Best-effort, lock-free probe: does the session's current map
        still carry approximate counts?

        Deliberately reads the explorer without its session lock (a
        stale answer is harmless — the caller only uses it to decide
        whether to schedule another refinement pass, and any
        map-bearing command re-triggers scheduling anyway), so it is
        safe to call from a latency-sensitive thread.
        """
        with self._lock:
            session = self._sessions.get(session_id)
        if session is None:
            return False
        return session.explorer.needs_refine

    def peek(self, session_id: str) -> Explorer | None:
        """The session's explorer, or ``None`` when absent — lock-free.

        The prefetch planner's read path: it never takes the session
        lock (a speculation must not delay interactive commands), so
        the state it reads may be one navigation behind.  That is fine —
        stale plans are discarded by the scheduler's generation check,
        and the builds they would have enqueued still land under valid
        cache keys.
        """
        with self._lock:
            session = self._sessions.get(session_id)
        return session.explorer if session is not None else None

    def refine_session(self, session_id: str) -> bool:
        """Upgrade a session's current map to exact counts.

        The expensive part — the exact chunked routing pass over the
        full selection — runs **outside** the session lock, so
        concurrent interactive commands on the same session are never
        stuck behind the very pass the two-phase design deferred.  The
        pass patches the shared cache; the state swap itself then
        happens under the lock via :meth:`Explorer.refine`, which at
        that point is a cache lookup.  Returns whether a refinement ran
        (the caller loops while it did: a navigation racing past the
        snapshot leaves a newer approximate state behind); a session
        that disappeared or already shows exact counts is a quiet
        no-op — refinement is best-effort by design.
        """
        with self._lock:
            session = self._sessions.get(session_id)
        if session is None:
            return False
        with session.lock:
            with self._lock:
                if self._sessions.get(session_id) is not session:
                    return False
            explorer = session.explorer
            if not explorer.needs_refine:
                return False
            state = explorer.state
        # The heavy pass, unlocked: patches the shared map cache.
        self._engine.map_builder.refine(
            explorer.table,
            state.columns,
            config=explorer.config,
            selection=state.selection,
            current_map=state.map,
        )
        with session.lock:
            with self._lock:
                if self._sessions.get(session_id) is not session:
                    return True
            if explorer.states() and explorer.state is state:
                explorer.refine()  # served from the patched cache
        return True

    def _require(self, request: Request) -> Session:
        session_id = request.arg("session")
        with self._lock:
            try:
                return self._sessions[session_id]
            except KeyError:
                raise KeyError(
                    f"no session {session_id!r}; open one first "
                    f"(active: {list(self._sessions)})"
                ) from None


def _map_response(session_id: str, data_map: DataMap) -> Response:
    """A map-bearing response: the map's kept export text, spliced."""
    return Response(
        {"session": session_id, "map": JsonText(export_map_json(data_map))},
        counts_status=data_map.counts_status,
    )


def _highlight_payload(highlight: Highlight) -> dict[str, object]:
    return {
        "region": highlight.region_id,
        "columns": list(highlight.columns),
        "n_rows": highlight.n_rows,
        "preview": [dict(row) for row in highlight.preview],
        "numeric": {
            name: {k: round(v, 4) for k, v in stats.items()}
            for name, stats in highlight.numeric_summaries.items()
        },
        "categories": {
            name: dict(counts)
            for name, counts in highlight.category_counts.items()
        },
    }
