"""The terminal browser's read-eval-print loop over one engine.

The paper demonstrates "fast, keyboard-free exploration"; a terminal has
only a keyboard, but the loop is the same: see the themes, open one,
look at the map, click (type) a region to zoom, highlight, project,
roll back.  :class:`BlaeuShell` is a thin translator from command lines
to the public :class:`~repro.core.navigation.Explorer` API — every
feature it uses is available to library users.  ``python -m repro``
(:mod:`repro.cli`) imports this module only on the shell path.

Commands inside the session::

    tables                  list registered tables
    use <table>             select the table to explore
    themes                  show the theme view
    open <theme|#>          build the initial map for a theme
    map                     re-print the current map
    zoom <region>           drill into a region (e.g. zoom r0)
    refine                  upgrade approximate region counts to exact
    highlight <region> [col …]   inspect a region's tuples
    insight <region>        why is this region distinct?
    project <theme|#>       re-map the selection with another theme
    hist <column>           text histogram of a column in the selection
    sql [region]            the implicit query so far
    suggest [N]             ranked next actions for the current state
    history                 the action stack
    back                    rollback one step
    goto <#>                rollback to a history entry
    help                    this text
    quit                    leave
"""

from __future__ import annotations

import shlex
import sys
from typing import Callable, Iterable, TextIO

from repro.cli import _theme_ref
from repro.core.engine import Blaeu
from repro.core.navigation import Explorer
from repro.viz.charts import text_histogram
from repro.viz.render import render_map, render_region_panel, render_theme_view

__all__ = ["BlaeuShell"]


class BlaeuShell:
    """A line-oriented session over one engine.

    Parameters
    ----------
    engine:
        The engine with tables already registered.
    out:
        Stream for output (injected for tests).
    """

    def __init__(self, engine: Blaeu, out: TextIO | None = None) -> None:
        self._engine = engine
        self._out = out or sys.stdout
        self._explorer: Explorer | None = None
        self._table_name: str | None = None
        # The same registry the HTTP service exposes at /metrics backs
        # the shell's build reports: the shell is a composition root,
        # so it installs a fresh process-global registry and every
        # layer records into it from zero.
        from repro.obs.metrics import reset_metrics

        self._metrics = reset_metrics()
        tables = engine.tables()
        if len(tables) == 1:
            self._select_table(tables[0])

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------

    def run(self, lines: Iterable[str]) -> None:
        """Process command lines until exhaustion or ``quit``."""
        for line in lines:
            if not self.handle(line):
                break

    def handle(self, line: str) -> bool:
        """Process one command line; returns ``False`` on ``quit``."""
        try:
            words = shlex.split(line)
        except ValueError as error:
            self._print(f"parse error: {error}")
            return True
        if not words:
            return True
        command, *args = words
        handler: Callable[[list[str]], None] | None = getattr(
            self, f"_cmd_{command}", None
        )
        if command in ("quit", "exit"):
            self._print("bye")
            return False
        if handler is None:
            self._print(f"unknown command {command!r}; try 'help'")
            return True
        try:
            handler(args)
        except (KeyError, ValueError, RuntimeError, IndexError) as error:
            self._print(f"error: {error}")
        return True

    # ------------------------------------------------------------------
    # Commands
    # ------------------------------------------------------------------

    def _cmd_help(self, args: list[str]) -> None:
        self._print(__doc__.split("Commands inside the session::", 1)[1])

    def _cmd_tables(self, args: list[str]) -> None:
        for name in self._engine.tables():
            table = self._engine.database.table(name)
            marker = "*" if name == self._table_name else " "
            suffix = ""
            if table.residency == "store":
                skipped = table.partitions_skipped
                suffix = f" [store, {len(table.partitions)} partitions"
                if skipped:
                    suffix += f", {skipped} pruned"
                suffix += "]"
            self._print(
                f" {marker} {name}: {table.n_rows} rows x "
                f"{table.n_columns} columns{suffix}"
            )

    def _cmd_use(self, args: list[str]) -> None:
        if len(args) != 1:
            raise ValueError("usage: use <table>")
        self._select_table(args[0])
        self._print(f"exploring {args[0]!r}")

    def _cmd_themes(self, args: list[str]) -> None:
        self._print(render_theme_view(self._require_explorer().themes()))
        self._print(self._graph_report())

    def _cmd_open(self, args: list[str]) -> None:
        if len(args) != 1:
            raise ValueError("usage: open <theme name or index>")
        explorer = self._require_explorer()
        explorer.open_theme(_theme_ref(args[0]))
        self._print(render_map(explorer.state.map))
        self._print(self._map_report())

    def _cmd_map(self, args: list[str]) -> None:
        self._print(render_map(self._require_state().map))
        self._print(self._map_report())

    def _cmd_refine(self, args: list[str]) -> None:
        explorer = self._require_explorer()
        if not explorer.needs_refine:
            self._print("counts are already exact")
            return
        explorer.refine()
        self._print(render_map(explorer.state.map))
        self._print(self._map_report())

    def _cmd_zoom(self, args: list[str]) -> None:
        if len(args) != 1:
            raise ValueError("usage: zoom <region id>")
        explorer = self._require_explorer()
        explorer.zoom(args[0])
        self._print(render_map(explorer.state.map))
        self._print(self._map_report())

    def _cmd_highlight(self, args: list[str]) -> None:
        if not args:
            raise ValueError("usage: highlight <region id> [column …]")
        explorer = self._require_explorer()
        columns = tuple(args[1:]) or None
        highlight = explorer.highlight(args[0], columns=columns)
        self._print(render_region_panel(highlight))

    def _cmd_insight(self, args: list[str]) -> None:
        if len(args) != 1:
            raise ValueError("usage: insight <region id>")
        report = self._require_explorer().insights(args[0])
        self._print(report.describe())

    def _cmd_project(self, args: list[str]) -> None:
        if len(args) != 1:
            raise ValueError("usage: project <theme name or index>")
        explorer = self._require_explorer()
        explorer.project(_theme_ref(args[0]))
        self._print(render_map(explorer.state.map))
        self._print(self._map_report())

    def _cmd_hist(self, args: list[str]) -> None:
        if len(args) != 1:
            raise ValueError("usage: hist <column>")
        explorer = self._require_explorer()
        state = self._require_state()
        selection = explorer.table.select(state.selection)
        self._print(text_histogram(selection.column(args[0])))  # type: ignore[arg-type]

    def _cmd_sql(self, args: list[str]) -> None:
        explorer = self._require_explorer()
        region = args[0] if args else None
        self._print(explorer.sql(region))

    def _cmd_suggest(self, args: list[str]) -> None:
        if len(args) > 1 or (args and not args[0].isdigit()):
            raise ValueError("usage: suggest [limit]")
        limit = int(args[0]) if args else 5
        explorer = self._require_explorer()
        suggestions = explorer.suggest(limit=limit)
        if not suggestions:
            self._print("no suggestions for this state")
            return
        for index, suggestion in enumerate(suggestions, start=1):
            self._print(f" {index}. {suggestion.describe()}")

    def _cmd_history(self, args: list[str]) -> None:
        explorer = self._require_explorer()
        for index, state in enumerate(explorer.states()):
            self._print(f" [{index}] {state.action} ({state.n_rows} tuples)")

    def _cmd_back(self, args: list[str]) -> None:
        explorer = self._require_explorer()
        explorer.rollback()
        self._print(render_map(explorer.state.map))

    def _cmd_goto(self, args: list[str]) -> None:
        if len(args) != 1 or not args[0].isdigit():
            raise ValueError("usage: goto <history index>")
        explorer = self._require_explorer()
        explorer.goto(int(args[0]))
        self._print(render_map(explorer.state.map))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _select_table(self, name: str) -> None:
        self._explorer = self._engine.explore(name)
        self._table_name = name

    def _graph_report(self) -> str:
        """One line of graph-engine telemetry shown after the theme view.

        Reads the ``blaeu_graph_*_total`` counters the builder pushes
        into the shared metrics registry, so warm navigations visibly
        skip the build (cache hits go up, build time stays put).
        """
        seconds = self._engine.graph_builder.last_build_seconds
        counter = self._metrics.counter
        return (
            f"graph: last build {seconds * 1000.0:.0f} ms"
            f" | builds {counter('blaeu_graph_builds_total')}"
            f" | graph cache {counter('blaeu_graph_cache_hits_total')} hit /"
            f" {counter('blaeu_graph_cache_misses_total')} miss"
            f" | code cache {counter('blaeu_graph_code_cache_hits_total')}"
            f" hit / {counter('blaeu_graph_code_cache_misses_total')} miss"
        )

    def _map_report(self) -> str:
        """One line of map-pipeline telemetry shown after each map.

        Reads the ``blaeu_pipeline_*`` counters the builder pushes into
        the shared metrics registry plus the stage timings of its last
        :class:`~repro.core.pipeline.BuildRecord`, so warm navigations
        visibly re-enter the pipeline mid-way (stage hits go up, the
        skipped stages report no time).
        """
        from repro.core.pipeline import STAGES

        last = self._engine.map_builder.last
        stages = last.stages if last is not None else ()
        seconds = {stage.name: stage.seconds for stage in stages}
        counter = self._metrics.counter
        per_stage = " ".join(
            f"{stage}={counter(f'blaeu_pipeline_{stage}_hits_total')}h/"
            f"{counter(f'blaeu_pipeline_{stage}_misses_total')}m"
            f"({seconds.get(stage, 0.0) * 1000.0:.0f}ms)"
            for stage in STAGES
        )
        build_seconds = last.seconds if last is not None else 0.0
        return (
            f"pipeline: last build {build_seconds * 1000.0:.0f} ms"
            f" | builds {counter('blaeu_pipeline_builds_total')}"
            f" | map cache {counter('blaeu_pipeline_map_hits_total')} hit /"
            f" {counter('blaeu_pipeline_map_misses_total')} miss"
            f" | refinements {counter('blaeu_pipeline_refinements_total')}"
            f"\nstages: {per_stage}"
        )

    def _require_explorer(self) -> Explorer:
        if self._explorer is None:
            raise RuntimeError("no table selected; try 'tables' then 'use'")
        return self._explorer

    def _require_state(self):
        return self._require_explorer().state

    def _print(self, text: str) -> None:
        print(text, file=self._out)
