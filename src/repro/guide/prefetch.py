"""Speculative prefetch: build the user's likely next map before the click.

The multi-worker service shares one :class:`~repro.service.cache.
TieredCache`; the recommendation engine (:mod:`repro.guide.recommend`)
knows — deterministically — which actions it will rank first.  Put
together: after each served map/theme response the scheduler plans the
top-N suggested actions and builds their artifacts through the staged
pipeline as **low-priority background jobs**, so the likely next
request is a warm hit for *every* worker sharing the disk tier.

Three invariants keep speculation harmless:

* **never displace foreground** — background jobs are admitted only
  onto idle pool threads (``WorkerPool.run(..., background=True)``)
  and retried with a short backoff instead of queueing;
* **bounded concurrency** — at most ``jobs`` speculative builds run at
  once, however many actions are planned;
* **cancel-on-navigate** — each scope (a session id or a table) carries
  a generation counter; a new speculation or an explicit
  :meth:`PrefetchScheduler.cancel` bumps it, and stale speculations
  stop before their next build.  A build already running on a worker
  thread finishes (threads are not interruptible) — but its result
  still lands in the shared cache, so even a "wasted" speculation warms
  something.

Every speculation is observable: ``blaeu_guide_prefetch_*`` counters,
kept in the process-global metrics registry alone, and ``guide.plan`` /
``guide.prefetch`` trace spans.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.guide.recommend import (
    Suggestion,
    suggest_actions,
    suggestion_request,
)
from repro.obs.metrics import get_metrics
from repro.obs.trace import get_tracer
from repro.resilience.deadline import (
    DeadlineExceeded,
    clear_deadline,
    deadline_scope,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.engine import Blaeu
    from repro.core.navigation import Explorer
    from repro.server.session import SessionManager
    from repro.service.pool import WorkerPool

__all__ = [
    "PrefetchAction",
    "PrefetchScheduler",
    "plan_session",
    "plan_table",
    "prefetch_actions",
]

#: Seconds to wait before re-offering a background job to a busy pool.
_BACKOFF_SECONDS = 0.02

#: Give up on one speculative build after this many saturated offers.
_MAX_OFFERS = 50


@dataclass(frozen=True)
class PrefetchAction:
    """One planned speculative build: a label and a zero-arg thunk.

    The thunk runs on a pool thread and builds through the shared
    :class:`~repro.core.pipeline.MapBuilder`, so the artifact lands in
    the shared cache under exactly the key foreground navigation would
    look up (every build is seeded from its content key — the result
    is bit-identical to the foreground build it pre-empts).
    """

    label: str
    build: Callable[[], object]


def _resolve_actions(
    explorer: "Explorer",
    suggestions: list[Suggestion],
    data_map,
    columns: tuple[str, ...],
    selection,
) -> list[PrefetchAction]:
    """Turn ranked suggestions into build thunks over the shared builder."""
    themes = explorer.themes()
    builder = explorer.map_builder
    table = explorer.table
    config = explorer.config
    out: list[PrefetchAction] = []
    for suggestion in suggestions:
        try:
            request_selection, request_columns, k = suggestion_request(
                suggestion, themes, data_map, columns, selection
            )
        except (KeyError, ValueError):
            continue

        def build(
            sel=request_selection, cols=request_columns, forced_k=k
        ) -> object:
            return builder.build(
                table, cols, config=config, selection=sel, k=forced_k
            )

        out.append(
            PrefetchAction(
                label=f"{suggestion.action}:{suggestion.target}", build=build
            )
        )
    return out


def prefetch_actions(
    explorer: "Explorer", suggestions: list[Suggestion]
) -> list[PrefetchAction]:
    """Resolve ranked suggestions into speculative build thunks."""
    if explorer.depth > 0:
        state = explorer.state
        data_map, columns, selection = state.map, state.columns, state.selection
    else:
        data_map, columns, selection = None, (), None
    return _resolve_actions(explorer, suggestions, data_map, columns, selection)


def plan_session(
    manager: "SessionManager", session_id: str, top_n: int
) -> Callable[[], list[PrefetchAction]]:
    """A planner over one live server session's current state.

    Runs on a pool thread.  The session may close or navigate while the
    plan runs — a vanished session plans nothing, and stale plans are
    discarded by the scheduler's generation check before any build.
    """

    def planner() -> list[PrefetchAction]:
        explorer = manager.peek(session_id)
        if explorer is None:
            return []
        suggestions = suggest_actions(explorer, limit=top_n)
        return prefetch_actions(explorer, suggestions)

    return planner


def plan_table(
    engine: "Blaeu",
    table_name: str,
    columns: tuple[str, ...] | None,
    theme: str | int | None,
    k: int | None,
    top_n: int,
) -> Callable[[], list[PrefetchAction]]:
    """A planner for the stateless per-table map endpoint.

    Resolves the served request's column set (explicit ``columns``, a
    ``theme`` reference, or the table's first theme — the endpoint's
    own defaulting) and recreates the just-served state through the
    shared builder (a cache hit — the foreground request stored the map
    moments ago), so the endpoint needs no session to speculate.  Runs
    entirely on a pool thread.
    """

    def planner() -> list[PrefetchAction]:
        from repro.guide.recommend import score_state
        from repro.table.predicates import Everything

        if columns:
            request_columns = tuple(columns)
        else:
            themes = engine.themes(table_name)
            resolved = themes.theme(0 if theme is None else theme)
            request_columns = tuple(resolved.columns)
        explorer = engine.explore(table_name)
        data_map = explorer.map_builder.build(
            explorer.table,
            request_columns,
            config=explorer.config,
            k=k,
        )
        selection = Everything()
        suggestions = score_state(
            explorer.table,
            explorer.config,
            explorer.themes(),
            data_map,
            request_columns,
            selection,
            limit=top_n,
        )
        return _resolve_actions(
            explorer, suggestions, data_map, request_columns, selection
        )

    return planner


class PrefetchScheduler:
    """Plans and runs speculative builds through a shared worker pool.

    Parameters
    ----------
    pool:
        The service's :class:`~repro.service.pool.WorkerPool`; all
        speculative work goes through it with ``background=True``.
    top_n:
        How many ranked actions each speculation warms.
    jobs:
        Maximum concurrent speculative builds (a semaphore, on top of
        the pool's own idle-thread admission).
    deadline:
        Per-job budget in seconds for each speculative plan or build.
        Speculations never inherit the foreground request's deadline
        (``asyncio`` tasks copy the spawning context, so without care a
        background build would ride — and then outlive — the request's
        budget); instead each pool job gets its own short deadline so a
        pathological build releases its pool thread at the next stage
        checkpoint instead of holding it indefinitely.  ``None``
        disables the budget.
    """

    def __init__(
        self,
        pool: "WorkerPool",
        top_n: int = 3,
        jobs: int = 1,
        deadline: float | None = 30.0,
    ) -> None:
        if top_n < 1:
            raise ValueError("top_n must be at least 1")
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        if deadline is not None and deadline <= 0:
            raise ValueError("deadline must be positive when set")
        self._pool = pool
        self._top_n = top_n
        self._deadline = deadline
        self._semaphore = asyncio.Semaphore(jobs)
        self._generations: dict[str, int] = {}
        self._tasks: set[asyncio.Task] = set()
        self._closed = False

    # ------------------------------------------------------------------
    # Control surface
    # ------------------------------------------------------------------

    def speculate(
        self, scope: str, planner: Callable[[], list[PrefetchAction]]
    ) -> None:
        """Plan and warm the top actions for ``scope`` (fire-and-forget).

        Implicitly cancels the scope's previous speculation: the user
        navigated, so whatever was planned for the old state is stale.
        Must be called from the event loop thread.
        """
        if self._closed:
            return
        generation = self._bump(scope)
        task = asyncio.get_running_loop().create_task(
            self._speculate(scope, generation, planner)
        )
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    def cancel(self, scope: str) -> None:
        """Mark every in-flight speculation for ``scope`` stale."""
        self._bump(scope)

    async def drain(self) -> None:
        """Wait until every in-flight speculation has finished.

        Test and bench quiescence — foreground code never calls this.
        """
        while self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)

    async def aclose(self) -> None:
        """Stop speculating and wait for in-flight tasks to wind down."""
        self._closed = True
        for scope in list(self._generations):
            self._bump(scope)
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)

    @property
    def in_flight(self) -> int:
        """Speculations planned or building right now."""
        return len(self._tasks)

    # ------------------------------------------------------------------
    # Internals (event-loop thread only, except the pool thunks)
    # ------------------------------------------------------------------

    def _bump(self, scope: str) -> int:
        self._generations[scope] = self._generations.get(scope, 0) + 1
        return self._generations[scope]

    def _fresh(self, scope: str, generation: int) -> bool:
        return not self._closed and self._generations.get(scope) == generation

    async def _speculate(
        self,
        scope: str,
        generation: int,
        planner: Callable[[], list[PrefetchAction]],
    ) -> None:
        # This task was created from a request handler, so it carries a
        # *copy* of the request's context — including any request
        # deadline, which may already be spent by the time speculation
        # runs.  Background work budgets itself per job instead.
        clear_deadline()
        metrics = get_metrics()
        with get_tracer().span("guide.plan") as span:
            if span.enabled:
                span.set("scope", scope)
            actions = await self._offer(scope, generation, planner)
        if actions is None:
            return
        for action in actions[: self._top_n]:
            if not self._fresh(scope, generation):
                metrics.increment("blaeu_guide_prefetch_cancelled_total")
                return
            await self._prefetch(scope, generation, action)

    async def _prefetch(
        self, scope: str, generation: int, action: PrefetchAction
    ) -> None:
        metrics = get_metrics()
        metrics.increment("blaeu_guide_prefetch_scheduled_total")
        async with self._semaphore:
            with get_tracer().span("guide.prefetch") as span:
                if span.enabled:
                    span.set("scope", scope)
                    span.set("action", action.label)
                result = await self._offer(scope, generation, action.build)
            if result is None:
                return
            metrics.increment("blaeu_guide_prefetch_completed_total")

    async def _offer(
        self, scope: str, generation: int, fn: Callable[[], object]
    ) -> object | None:
        """Run ``fn`` as a background pool job, backing off while busy.

        Returns ``None`` (and counts why) instead of raising: a stale
        generation counts as cancelled, a persistently saturated pool as
        rejected, a shut-down pool as silent, anything else as an error.
        """
        # Imported here, not at module level: the service layer imports
        # this module, so a top-level import of repro.service would be
        # circular.
        from repro.service.pool import PoolSaturatedError

        metrics = get_metrics()
        for _ in range(_MAX_OFFERS):
            if not self._fresh(scope, generation):
                metrics.increment("blaeu_guide_prefetch_cancelled_total")
                return None
            try:
                # Each job gets its own short deadline: ``pool.run``
                # copies the current context onto the worker thread, so
                # the stage checkpoints inside the build see it and the
                # pool slot is released at the next stage boundary.
                with deadline_scope(self._deadline):
                    result = await self._pool.run(fn, background=True)
            except PoolSaturatedError:
                await asyncio.sleep(_BACKOFF_SECONDS)
                continue
            except asyncio.CancelledError:
                raise
            except DeadlineExceeded:
                # A speculative build outliving its budget is a
                # cancellation, not a failure: the pool thread was
                # reclaimed, which is exactly the invariant we bought.
                metrics.increment("blaeu_guide_prefetch_deadline_total")
                return None
            except RuntimeError as error:
                if "shut down" in str(error):
                    # Pool shut down underneath us: service is stopping.
                    return None
                metrics.increment("blaeu_guide_prefetch_errors_total")
                return None
            except Exception:
                metrics.increment("blaeu_guide_prefetch_errors_total")
                return None
            return result if result is not None else ()
        metrics.increment("blaeu_guide_prefetch_rejected_total")
        return None
