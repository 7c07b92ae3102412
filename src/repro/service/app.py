"""The serving application: engine + cache + pool behind HTTP routes.

:class:`BlaeuService` is the composition root of the serving layer.  It
installs one shared :class:`~repro.service.cache.TieredCache` on the
engine (an LRU memory tier over the disk tier of ``cache.dir``, or over
nothing), so every session's map builds go through it; it wraps a
thread-safe :class:`~repro.server.session.SessionManager`, and answers
the routes
declared in :mod:`repro.service.routes` (``/healthz``, ``/metrics`` and
the ``/v1`` API: table resources and ``POST /v1/commands/<command>``).
Its options are declared in :mod:`repro.service.config`.

Engine work runs on the worker pool, never on the event loop; error
responses map onto HTTP statuses (unknown command / bad arguments →
400, missing session or table → 404, saturated pool → 503).
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import os
import sys
import time
from typing import Callable

from repro.core.engine import Blaeu
from repro.core.pipeline import MapBuildError
from repro.guide.prefetch import PrefetchScheduler, plan_session, plan_table
from repro.obs.metrics import Metrics, get_metrics
from repro.obs.trace import (
    Tracer,
    collect_notes,
    configure_tracing,
    format_fields,
)
from repro.resilience.breaker import STATE_CODES, CircuitBreaker
from repro.resilience.deadline import (
    Deadline,
    DeadlineExceeded,
    clear_deadline,
    current_deadline,
    deadline_scope,
    reset_deadline,
    set_deadline,
)
from repro.resilience.faults import fault_point
from repro.server.protocol import (
    COMMANDS,
    ErrorResponse,
    ProtocolError,
    Response,
    validate_request,
)
from repro.server.session import SessionManager
from repro.service import routes
from repro.service.cache import LRUCache, TieredCache
from repro.service.config import (
    CacheConfig,
    GuideConfig,
    PoolConfig,
    ResilienceConfig,
    ServiceConfig,
    TraceConfig,
)
from repro.service.http import (
    HttpError,
    HttpRequest,
    HttpResponse,
    HttpServer,
    error_response,
    json_response,
    serve_until_signalled,
    text_response,
)
from repro.service.pool import PoolSaturatedError, WorkerPool
from repro.store.artifacts import ArtifactCache

__all__ = [
    "BlaeuService",
    "CacheConfig",
    "GuideConfig",
    "PoolConfig",
    "ResilienceConfig",
    "ServiceConfig",
    "TraceConfig",
]

#: Error prefixes that mean "the thing you named does not exist".
_NOT_FOUND_PREFIXES = ("no session ", "no table ", "no theme ", "no region ")


class BlaeuService:
    """The HTTP service over one engine.

    Parameters
    ----------
    engine:
        The engine with tables already registered.  The service installs
        its shared map cache on it, in place of any it carried.
    config:
        Serving-layer knobs.
    """

    def __init__(
        self, engine: Blaeu, config: ServiceConfig | None = None
    ) -> None:
        self._config = config or ServiceConfig()
        self._engine = engine
        cache_config = self._config.cache
        resilience = self._config.resilience
        #: Circuit breaker guarding the L2 disk tier (None without one).
        self._breaker: CircuitBreaker | None = None
        disk: ArtifactCache | None = None
        if cache_config.dir:
            self._breaker = CircuitBreaker(
                name="l2",
                failure_threshold=resilience.breaker_failures,
                recovery_time=resilience.breaker_recovery,
                latency_threshold=resilience.breaker_latency,
            )
            disk = ArtifactCache(
                cache_config.dir,
                max_bytes=cache_config.disk_bytes,
                breaker=self._breaker,
            )
        self._cache = TieredCache(
            LRUCache(max_size=cache_config.size, ttl=cache_config.ttl), disk
        )
        engine.set_map_cache(self._cache)
        self._manager = SessionManager(engine)
        self._tracer = configure_tracing(
            enabled=self._config.trace.enabled,
            buffer_size=self._config.trace.buffer_size,
            slow_op_threshold=self._config.trace.slow_op_threshold,
        )
        #: Where access-log lines go (swapped out by tests).
        self.access_log_sink: Callable[[str], None] = (
            lambda line: print(line, file=sys.stderr)
        )
        #: Sessions with an exact-count refinement in flight, plus the
        #: asyncio tasks driving them (cancelled on shutdown).
        self._refining: set[str] = set()
        self._refine_tasks: set[asyncio.Task] = set()
        self._stopping = False
        self._pool = WorkerPool(
            workers=self._config.pool.threads,
            max_pending=self._config.pool.max_pending,
        )
        #: The speculative-prefetch scheduler (``None`` unless enabled):
        #: after served map/theme responses it plans the top suggested
        #: next actions and warms the shared cache through idle pool
        #: slots.
        self._prefetcher: PrefetchScheduler | None = None
        if self._config.guide.prefetch:
            self._prefetcher = PrefetchScheduler(
                self._pool,
                top_n=self._config.guide.top_n,
                jobs=self._config.guide.prefetch_jobs,
                deadline=self._config.resilience.background_deadline,
            )
        self._http = HttpServer(
            self._route,
            host=self._config.host,
            port=self._config.port,
            read_timeout=self._config.read_timeout,
        )
        self._started_at: float | None = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def config(self) -> ServiceConfig:
        """The serving-layer configuration."""
        return self._config

    @property
    def manager(self) -> SessionManager:
        """The session manager (shared with in-process callers)."""
        return self._manager

    @property
    def engine(self) -> Blaeu:
        """The engine this service fronts."""
        return self._engine

    @property
    def metrics(self) -> Metrics:
        """The metric registry behind ``/metrics``: the process-global
        one, which every layer (graph builds, map pipeline, store scans,
        the pool and the cache tiers) records into at each event, so one
        process has one registry however many services it builds."""
        return get_metrics()

    @property
    def tracer(self) -> Tracer:
        """The tracer behind ``/v1/traces`` (disabled unless configured)."""
        return self._tracer

    @property
    def pool(self) -> WorkerPool:
        """The worker pool running engine commands."""
        return self._pool

    @property
    def port(self) -> int:
        """The bound port (after :meth:`start`)."""
        return self._http.port

    @property
    def host(self) -> str:
        """The bind host."""
        return self._http.host

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket; returns once requests are served."""
        await self._http.start()
        self._started_at = time.monotonic()

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain, then tear down.

        In-flight requests get ``resilience.drain_timeout`` seconds to
        finish before their connections are cancelled — a SIGTERM from
        the supervisor no longer severs responses mid-flight.
        """
        self._stopping = True
        await self._http.drain(self._config.resilience.drain_timeout)
        await self._http.stop()
        if self._prefetcher is not None:
            await self._prefetcher.aclose()
        for task in list(self._refine_tasks):
            task.cancel()
        if self._refine_tasks:
            await asyncio.gather(*self._refine_tasks, return_exceptions=True)
        self._pool.shutdown(wait=True)

    async def serve_forever(self) -> None:
        """Serve until :meth:`stop` (or task cancellation)."""
        with contextlib.suppress(asyncio.CancelledError):
            await self._http.serve_forever()

    def run(self, port_file: str | None = None) -> None:
        """Blocking entry point with SIGINT/SIGTERM-triggered shutdown.

        ``port_file`` (written atomically after bind) is how supervisor
        workers announce the port they got when asked for port 0.
        """
        asyncio.run(
            serve_until_signalled(
                self, functools.partial(self._announce, port_file)
            )
        )

    def _announce(self, port_file: str | None) -> None:
        if port_file:
            tmp = f"{port_file}.tmp"
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write(str(self.port))
            os.replace(tmp, port_file)
        print(
            f"blaeu service listening on http://{self.host}:{self.port} "
            f"({len(self._engine.tables())} tables, "
            f"cache={self._config.cache.size}, "
            f"threads={self._config.pool.threads})"
        )

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def _request_deadline(self, request: HttpRequest) -> Deadline | None:
        """The request's budget: header wins, config default otherwise."""
        resilience = self._config.resilience
        header = request.headers.get("x-blaeu-deadline")
        budget = resilience.request_deadline
        if header is not None:
            try:
                budget = float(header)
            except ValueError:
                raise HttpError(
                    400, f"X-Blaeu-Deadline must be seconds, got {header!r}"
                ) from None
            if budget <= 0:
                raise HttpError(400, "X-Blaeu-Deadline must be positive")
            budget = min(budget, resilience.max_deadline)
        if budget is None:
            return None
        return Deadline.after(budget)

    async def _route(self, request: HttpRequest) -> HttpResponse:
        started = time.perf_counter()
        # Chaos hook: lets the fault harness kill or wedge this worker
        # mid-request (health endpoints stay clean so probes and a chaos
        # test's metric scrapes don't consume the fault budget).
        if request.path not in ("/healthz", "/metrics"):
            fault_point("worker.request")
        # The metric label is settled before anything can raise, so a
        # route's 400s and 504s are counted with its other statuses.
        route, params = routes.match(request.path)
        if route is None or route.tier == "fleet":
            route, label = None, routes.unknown_label(request.path)
        else:
            label = route.label(params)
        with self._tracer.span("http.request") as span, collect_notes() as notes:
            token = None
            try:
                token = set_deadline(self._request_deadline(request))
                response = await self._dispatch(request, route, params)
            except DeadlineExceeded as error:
                get_metrics().increment(
                    "blaeu_resilience_deadline_exceeded_total"
                )
                response = error_response(504, "deadline_exceeded", str(error))
            except HttpError as error:
                # Request-level failures (e.g. malformed JSON bodies)
                # are counted too — otherwise abusive traffic is
                # invisible in /metrics.
                response = error.response()
            finally:
                if token is not None:
                    reset_deadline(token)
            if span.enabled:
                span.set("method", request.method)
                span.set("route", label)
                span.set("status", response.status)
                response.headers["X-Blaeu-Trace"] = span.trace_id
        duration = time.perf_counter() - started
        get_metrics().observe_request(label, response.status, duration)
        if self._config.trace.access_log:
            fields: dict[str, object] = {
                "method": request.method,
                "route": label,
                "status": response.status,
                "duration_ms": round(duration * 1000, 3),
            }
            fields.update(notes)
            if span.enabled:
                fields["trace"] = span.trace_id
            self.access_log_sink(format_fields("access", **fields))
        return response

    async def _dispatch(
        self,
        request: HttpRequest,
        route: routes.Route | None,
        params: dict[str, str],
    ) -> HttpResponse:
        """Answer one request on the route it matched (``None``: no
        route this tier serves)."""
        if route is None:
            return error_response(
                404, "unknown_route", f"no route {request.path!r}"
            )
        if route.method not in (None, request.method):
            return error_response(
                405,
                "method_not_allowed",
                f"use {route.method} for this resource",
            )
        if "table" in params:
            return await self._serve_table_resource(
                request, route.name, params["table"]
            )
        handler = getattr(self, f"_serve_{route.name}")
        return await handler(request, **params)

    async def _serve_tables(self, request: HttpRequest) -> HttpResponse:
        return await self._run_command(request, "catalog", {})

    async def _serve_command(
        self, request: HttpRequest, command: str
    ) -> HttpResponse:
        if command not in COMMANDS:
            return error_response(
                404,
                "unknown_command",
                f"unknown command {command!r}; known: {sorted(COMMANDS)}",
            )
        return await self._run_command(request, command, request.json())

    async def _serve_table_resource(
        self, request: HttpRequest, resource: str, ref: str
    ) -> HttpResponse:
        """``GET /v1/tables/{table}/<resource>``.

        ``{table}`` accepts a registered name or a full content
        fingerprint (the identity the artifact tiers and the
        multi-worker router key on).
        """
        table = self._resolve_table(ref)
        if table is None:
            return error_response(404, "not_found", f"no table {ref!r}")
        if resource == "themes":
            return await self._run_command(request, "themes", {"table": table})
        if resource == "graph":
            handler = self._handle_graph
        elif resource == "suggestions":
            handler = self._handle_suggestions
        elif self._should_degrade():
            # Every thread is busy (or the budget is nearly spent):
            # serve approximate counts now rather than queue an exact
            # build past the deadline.
            get_metrics().increment("blaeu_resilience_degraded_total")
            handler = functools.partial(
                self._handle_map, count_mode="approximate"
            )
        else:
            handler = self._handle_map
        try:
            response = await self._pool.run(handler, table, request)
        except PoolSaturatedError as error:
            return self._saturated(error)
        if resource == "map" and response.status == 200:
            self._speculate_table(table, request)
        return response

    @staticmethod
    def _saturated(error: PoolSaturatedError) -> HttpResponse:
        return error_response(
            503, "pool_saturated", str(error), headers={"Retry-After": "1"}
        )

    def _should_degrade(self) -> bool:
        """Serve a degraded (approximate-count) map for this request?"""
        resilience = self._config.resilience
        if not resilience.degrade_when_busy:
            return False
        deadline = current_deadline()
        if (
            deadline is not None
            and deadline.remaining() < resilience.degrade_remaining
        ):
            return True
        stats = self._pool.stats()
        return stats.in_flight >= stats.workers

    def _resolve_table(self, ref: str) -> str | None:
        """A table name from a name or content-fingerprint reference."""
        if ref in self._engine.tables():
            return ref
        for record in self._engine.database.catalog():
            if record["fingerprint"] == ref:
                return str(record["name"])
        return None

    def _handle_map(
        self,
        table: str,
        request: HttpRequest,
        count_mode: str | None = None,
    ) -> HttpResponse:
        """``GET /v1/tables/{table}/map`` — a stateless one-shot map.

        ``?theme=<index|name>`` or ``?columns=a,b,c`` choose the column
        set (a bare table defaults to its first theme); ``?k=`` forces
        the cluster count.  ``count_mode`` is the degradation override
        (load shedding serves ``"approximate"``).  Runs on the worker
        pool.
        """
        columns, theme, k = self._map_request_params(table, request)
        themes = self._engine.themes(table) if columns is None else None
        built = self._requested_map(
            table, themes, columns, 0 if theme is None else theme, k, count_mode
        )
        if isinstance(built, HttpResponse):
            return built
        columns, data_map = built
        payload: dict[str, object] = {
            "ok": True,
            "table": table,
            "columns": list(columns),
            "map": data_map.to_dict(),
        }
        if count_mode is not None:
            payload["degraded"] = True
        return json_response(payload)

    def _map_request_params(
        self, table: str, request: HttpRequest
    ) -> tuple[tuple[str, ...] | None, str | int | None, int | None]:
        """Parse the shared ``?theme=/?columns=/?k=`` map-request triple.

        Returns ``(columns, theme, k)`` with ``columns=None`` when the
        request defers to a theme (``theme=None`` then means "the
        table's first theme").  Raises :class:`HttpError` on malformed
        values; existence of the theme is checked by the handler that
        resolves it.
        """
        theme_values = request.query.get("theme", [])
        column_values = request.query.get("columns", [])
        k = request.query_int("k")
        columns: tuple[str, ...] | None = None
        if column_values:
            columns = tuple(
                name.strip()
                for name in column_values[0].split(",")
                if name.strip()
            )
            if not columns:
                raise HttpError(400, "columns must name at least one column")
        theme: str | int | None = None
        if theme_values:
            word = theme_values[0]
            theme = int(word) if word.isdigit() else word
        return columns, theme, k

    def _requested_map(
        self,
        table: str,
        themes,
        columns: tuple[str, ...] | None,
        theme: str | int,
        k: int | None,
        count_mode: str | None = None,
    ):
        """Build the map a request names → ``(columns, map)``, or the
        4xx response that refuses it.

        ``columns=None`` defers to ``theme`` (an index or a name into
        ``themes``, which is consulted only then).
        """
        if columns is None:
            try:
                resolved = themes.theme(theme)
            except KeyError:
                return error_response(
                    404, "not_found", f"no theme {theme!r} on table {table!r}"
                )
            columns = tuple(resolved.columns)
        try:
            data_map = self._engine.map(
                table, columns, k=k, count_mode=count_mode
            )
        except MapBuildError as error:
            return error_response(400, "map_build_invalid", str(error))
        except KeyError as error:
            return error_response(404, "not_found", str(error).strip("'\""))
        return columns, data_map

    def _handle_suggestions(
        self, table: str, request: HttpRequest
    ) -> HttpResponse:
        """``GET /v1/tables/{table}/suggestions`` — ranked next actions.

        Without ``?theme=``/``?columns=``: which theme to open first.
        With them: the suggested zooms / projections / re-clusterings
        of that map (built through the shared cache — a warm hit when
        the map was served before).  ``?limit=`` bounds the list.
        Deterministic for a fixed table/config/state, whatever the
        cache holds.  Runs on the worker pool.
        """
        from repro.guide.recommend import initial_suggestions, score_state
        from repro.table.predicates import Everything

        columns, theme, k = self._map_request_params(table, request)
        limit = request.query_int(
            "limit", default=self._config.guide.top_n, minimum=1
        )
        themes = self._engine.themes(table)
        if columns is None and theme is None:
            suggestions = initial_suggestions(themes, limit=limit)
        else:
            built = self._requested_map(table, themes, columns, theme, k)
            if isinstance(built, HttpResponse):
                return built
            columns, data_map = built
            table_obj = self._engine.database.table(table)
            suggestions = score_state(
                table_obj,
                self._engine.config,
                themes,
                data_map,
                columns,
                Everything(),
                limit=limit,
            )
        return json_response(
            {
                "ok": True,
                "table": table,
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

    def _speculate_table(self, table: str, request: HttpRequest) -> None:
        """Warm the suggested follow-ups of a just-served table map."""
        if self._prefetcher is None or self._stopping:
            return
        try:
            columns, theme, k = self._map_request_params(table, request)
        except HttpError:  # pragma: no cover - foreground answered 200
            return
        self._prefetcher.speculate(
            f"table:{table}",
            plan_table(
                self._engine,
                table,
                columns,
                theme,
                k,
                self._config.guide.top_n,
            ),
        )

    def _handle_graph(self, table: str, request: HttpRequest) -> HttpResponse:
        """``GET /v1/tables/{table}/graph`` — the dependency graph.

        Serves the column-dependency graph behind the table's themes as
        an explicit node/edge list (weights are the pairwise dependency
        scores the themes were partitioned on).
        """
        graph = self._engine.themes(table).graph
        edges = [
            {
                "source": graph.columns[i],
                "target": graph.columns[j],
                "weight": round(float(graph.weights[i, j]), 6),
            }
            for i in range(len(graph.columns))
            for j in range(i + 1, len(graph.columns))
        ]
        return json_response(
            {
                "ok": True,
                "table": table,
                "measure": graph.measure,
                "columns": list(graph.columns),
                "edges": edges,
            }
        )

    async def _serve_healthz(self, request: HttpRequest) -> HttpResponse:
        uptime = (
            time.monotonic() - self._started_at
            if self._started_at is not None
            else 0.0
        )
        pool = self._pool.stats()
        l1 = {"tier": "l1"}
        metrics = get_metrics()
        hits = metrics.labeled("blaeu_cache_hits_total", l1)
        misses = metrics.labeled("blaeu_cache_misses_total", l1)
        looked_up = hits + misses
        payload: dict[str, object] = {
            "ok": not self._stopping,
            "status": "draining" if self._stopping else "healthy",
            "uptime_seconds": round(uptime, 3),
            "tables": len(self._engine.tables()),
            "sessions": len(self._manager.session_ids()),
            "pool": {
                "in_flight": pool.in_flight,
                "workers": pool.workers,
            },
            "cache": {
                "size": len(self._cache.memory),
                "hits": hits,
                "misses": misses,
                "hit_rate": round(hits / looked_up, 4) if looked_up else 0.0,
            },
        }
        return json_response(payload)

    async def _serve_traces(self, request: HttpRequest) -> HttpResponse:
        """Recent traces from the ring buffer (newest first)."""
        limit = request.query_int("limit", default=10, minimum=1)
        return json_response(
            {
                "ok": True,
                "enabled": self._tracer.enabled,
                "traces": self._tracer.traces(limit=limit),
            }
        )

    async def _serve_metrics(self, request: HttpRequest) -> HttpResponse:
        """The registry, plus the gauges read off live state at scrape
        time.  Every count is a registry counter, kept where its event
        happens; nothing here copies one."""
        pool = self._pool.stats()
        metrics = get_metrics()
        metrics.set_gauge("blaeu_cache_entries", len(self._cache.memory))
        disk = self._cache.disk
        if disk is not None:
            census = disk.stats()
            metrics.set_gauge("blaeu_artifact_cache_entries", census.entries)
            metrics.set_gauge(
                "blaeu_artifact_cache_bytes", census.total_bytes
            )
        metrics.set_gauge("blaeu_pool_in_flight", pool.in_flight)
        metrics.set_gauge(
            "blaeu_pool_background_in_flight", pool.background_in_flight
        )
        if self._breaker is not None:
            metrics.set_gauge(
                "blaeu_resilience_breaker_state",
                STATE_CODES[self._breaker.state],
            )
        if self._prefetcher is not None:
            metrics.set_gauge(
                "blaeu_guide_prefetch_in_flight", self._prefetcher.in_flight
            )
        metrics.set_gauge(
            "blaeu_sessions_active", len(self._manager.session_ids())
        )
        metrics.set_gauge(
            "blaeu_graph_last_build_seconds",
            self._engine.graph_builder.last_build_seconds,
        )
        metrics.set_gauge(
            "blaeu_graph_code_cache_entries",
            len(self._engine.graph_builder.code_cache),
        )
        last_map = self._engine.map_builder.last
        metrics.set_gauge(
            "blaeu_pipeline_last_build_seconds",
            last_map.seconds if last_map is not None else 0.0,
        )
        metrics.set_gauge(
            "blaeu_pipeline_refining_sessions", len(self._refining)
        )
        return text_response(metrics.render())

    async def _run_command(
        self,
        request: HttpRequest,
        command: str,
        args: dict[str, object],
    ) -> HttpResponse:
        """Validate a protocol command and run it on the worker pool."""
        try:
            # The route, not the body, is authoritative for the command.
            parsed = validate_request({**args, "command": command})
        except ProtocolError as error:
            return error_response(400, "bad_request", str(error))
        try:
            result = await self._pool.run(self._manager.handle, parsed)
        except PoolSaturatedError as error:
            return self._saturated(error)
        if isinstance(result, Response):
            payload: dict[str, object] = {"ok": True, **result.payload}
            if result.counts_status is not None:
                self._annotate_counts(payload, result.counts_status)
            return json_response(payload)
        assert isinstance(result, ErrorResponse)
        status = self._error_status(result.error)
        # Structured client errors (e.g. the map pipeline rejecting the
        # request as posed) carry their own machine-readable code;
        # everything else gets the status-derived one, so no error body
        # leaves the service without a ``code``.
        code = result.code or ("not_found" if status == 404 else "bad_request")
        return error_response(status, code, result.error, command=command)

    def _annotate_counts(self, payload: dict[str, object], status: str) -> None:
        """Surface the count-refinement status of the map a response
        carries.

        Approximate maps additionally schedule the exact routing pass
        on the worker pool, so ``/map`` (and every other map-returning
        command) answers immediately and later reads see
        ``counts_status="exact"`` once the background pass patched the
        shared cache and the session state.
        """
        session_id = str(payload.get("session", ""))
        if status != "exact" and session_id:
            self._schedule_refine(session_id)
        if session_id:
            self._speculate_session(session_id)
        payload["counts_status"] = status
        payload["refining"] = session_id in self._refining

    def _speculate_session(self, session_id: str) -> None:
        """Warm the suggested follow-ups of a session's new state.

        Every map-bearing response means the session just navigated, so
        this both cancels the previous speculation for the session
        (``speculate`` bumps the scope's generation) and plans from the
        fresh state.
        """
        if self._prefetcher is None or self._stopping:
            return
        self._prefetcher.speculate(
            f"session:{session_id}",
            plan_session(
                self._manager, session_id, self._config.guide.top_n
            ),
        )

    def _schedule_refine(self, session_id: str) -> None:
        """Queue one background exact-count pass for a session."""
        if session_id in self._refining:
            return
        self._refining.add(session_id)
        task = asyncio.create_task(self._refine(session_id))
        self._refine_tasks.add(task)
        task.add_done_callback(self._refine_tasks.discard)

    async def _refine(self, session_id: str) -> None:
        """Drive one refinement through the pool (best-effort).

        A saturated pool backs off and retries — interactive traffic
        keeps priority; a pool shut down mid-flight ends the attempt.
        On a clean finish the session is re-checked *after* the
        in-flight flag drops: a navigation that slipped a new
        approximate state into the flag's last open window gets its own
        pass instead of being masked by the dying one.

        The task inherited the originating request's context (captured
        at ``create_task`` time), so this span joins that request's
        trace — the trace tree shows which navigation triggered the
        background pass.
        """
        clean = False
        # The task context was copied from the originating request, so
        # drop its deadline — the foreground budget must not cancel a
        # pass that outlives the response.  Each pool submission instead
        # runs under its own background budget so a wedged refinement
        # can never pin a worker thread indefinitely.
        clear_deadline()
        background_budget = self._config.resilience.background_deadline
        with self._tracer.span("refine.session") as span:
            if span.enabled:
                span.set("session", session_id)
            try:
                while True:
                    try:
                        with deadline_scope(background_budget):
                            refined = await self._pool.run(
                                self._manager.refine_session, session_id
                            )
                    except PoolSaturatedError:
                        await asyncio.sleep(0.05)
                        continue
                    except DeadlineExceeded:
                        get_metrics().increment(
                            "blaeu_resilience_background_deadline_total"
                        )
                        return
                    except RuntimeError as error:
                        if "worker pool is shut down" in str(error):
                            return  # service stopping; nothing to record
                        get_metrics().increment(
                            "blaeu_pipeline_refine_errors_total"
                        )
                        return
                    except Exception:
                        get_metrics().increment(
                            "blaeu_pipeline_refine_errors_total"
                        )
                        return
                    if not refined:
                        clean = True
                        return
                    # A navigation may have raced past the snapshot and
                    # left a newer approximate state; keep going until
                    # the session shows exact counts.
            finally:
                if span.enabled:
                    span.set("clean", clean)
                self._refining.discard(session_id)
                if (
                    clean
                    and not self._stopping
                    and self._manager.needs_refine(session_id)
                ):
                    self._schedule_refine(session_id)

    @staticmethod
    def _error_status(error: str) -> int:
        """Map an engine error message onto an HTTP status.

        ``str(KeyError(...))`` wraps the message in quotes, so strip
        them before matching the not-found prefixes.
        """
        if error.lstrip("'\"").startswith(_NOT_FOUND_PREFIXES):
            return 404
        return 400
