"""The four navigational actions: zoom, highlight, project, rollback (§2).

An :class:`Explorer` is the session-level state machine.  Every state is
the triple *(selection predicate, active columns, data map)*; zooming and
projecting push new states, rollback pops, and highlight inspects without
changing state.  "Each action is reversible, and the users can always go
back to a previous state of the system with a rollback."
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import partial
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.core.config import BlaeuConfig
from repro.core.datamap import DataMap
from repro.core.pipeline import MapBuilder
from repro.core.themes import Theme, ThemeSet, extract_themes
from repro.graph.dependency import GraphBuilder
from repro.obs.metrics import get_metrics
from repro.obs.trace import get_tracer
from repro.stats.summary import present_summary
from repro.table.column import CategoricalColumn, Column, ColumnKind, NumericColumn
from repro.table.predicates import And, Everything, Predicate
from repro.table.table import Table

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.insights import InsightReport
    from repro.guide.recommend import Suggestion

__all__ = ["Explorer", "ExplorationState", "Highlight", "MatchedRows"]


@dataclass(frozen=True)
class ExplorationState:
    """One immutable point in the exploration history."""

    selection: Predicate
    columns: tuple[str, ...]
    map: DataMap
    action: str

    @property
    def n_rows(self) -> int:
        """Tuples in this state's selection."""
        return self.map.n_rows


@dataclass(frozen=True)
class Highlight:
    """The result of highlighting a region (paper: inspect its tuples).

    Contains a bounded tuple preview plus per-column summaries —
    histograms for numeric columns, value counts for categorical ones —
    the data behind the "classic univariate and bivariate visualization
    methods" the prototype offers.
    """

    region_id: str
    columns: tuple[str, ...]
    n_rows: int
    preview: tuple[dict[str, object], ...]
    numeric_summaries: dict[str, dict[str, float]] = field(default_factory=dict)
    category_counts: dict[str, dict[str, int]] = field(default_factory=dict)


@dataclass
class MatchedRows:
    """What a highlight keeps of the rows it matched, chunk by chunk.

    Numeric columns keep their present matched values, one array per
    chunk (``np.compress`` straight out of the chunk: each cell is
    copied once and nothing else of the chunk is kept); categorical
    columns keep per-code counts; the preview keeps the first rows up
    to its cap.  One highlight pass feeds one accumulator, chunk by
    chunk in row order (:func:`_highlight_pass`).
    """

    n_rows: int = 0
    values: dict[str, list[np.ndarray]] = field(default_factory=dict)
    code_counts: dict[str, np.ndarray] = field(default_factory=dict)
    preview: list[dict[str, object]] = field(default_factory=list)

    def add(
        self, columns: dict[str, Column], rows: np.ndarray, preview_cap: int
    ) -> None:
        """Collect the ``rows`` (a boolean mask) of one chunk's inspected
        ``columns`` (in the highlight's column order)."""
        self.n_rows += int(np.count_nonzero(rows))
        for name, column in columns.items():
            if isinstance(column, NumericColumn):
                keep = rows & ~column.missing_mask
                self.values.setdefault(name, []).append(
                    np.compress(keep, column.values)
                )
            elif isinstance(column, CategoricalColumn):
                # Shifted by one, the missing code -1 counts in bin 0.
                shifted = np.compress(rows, column.codes) + 1
                counts = np.bincount(
                    shifted, minlength=len(column.categories) + 1
                )[1:]
                self.code_counts[name] = self.code_counts.get(name, 0) + counts
        room = preview_cap - len(self.preview)
        for local in np.flatnonzero(rows)[: max(room, 0)]:
            self.preview.append(
                {name: column.value_at(int(local)) for name, column in columns.items()}
            )

    def highlight(
        self, region_id: str, table: Table, inspect: tuple[str, ...]
    ) -> Highlight:
        """The :class:`Highlight` of the collected rows.  Consumes the
        numeric values: each column's are dropped once summarized."""
        numeric_summaries: dict[str, dict[str, float]] = {}
        category_counts: dict[str, dict[str, int]] = {}
        for name in inspect:
            if table.kind(name) is ColumnKind.NUMERIC:
                numeric_summaries[name] = present_summary(
                    self.values.pop(name, [])
                )
                continue
            categories = table.categories(name)
            counts = self.code_counts.get(name, ())
            pairs = [
                (categories[code], int(n)) for code, n in enumerate(counts) if n > 0
            ]
            pairs.sort(key=lambda item: (-item[1], item[0]))
            category_counts[name] = dict(pairs)
        return Highlight(
            region_id=region_id,
            columns=inspect,
            n_rows=self.n_rows,
            preview=tuple(self.preview),
            numeric_summaries=numeric_summaries,
            category_counts=category_counts,
        )


def _highlight_pass(
    table: Table, predicate: Predicate, inspect: tuple[str, ...], preview_cap: int
) -> MatchedRows:
    """The rows of ``table`` matching ``predicate``, collected for a
    highlight of the ``inspect`` columns in one pass.

    The pass walks every partition the zone maps cannot rule out.  Each
    chunk reads the predicate's columns (the inspected ones when the
    predicate references none), and only a chunk in which a row matched
    reads the inspected columns the predicate does not reference, so no
    column is read twice and the selection is never materialized as a
    whole-table mask.  The pass is counted and timed as a store scan,
    under a ``store.highlight`` span.
    """
    started = time.perf_counter()
    first = tuple(sorted(predicate.columns())) or inspect
    later = tuple(name for name in inspect if name not in first)
    matched = MatchedRows()
    with get_tracer().span("store.highlight") as span:
        live, skipped = table.prune_partitions(predicate)
        chunks = 0
        for lo, hi, chunk, reader in table.scan_partitions(live, first):
            chunks += 1
            rows = predicate.mask(chunk)
            if not rows.any():
                continue
            if later:
                rest = table.read_chunk(reader, later, lo, hi)
            columns = {
                name: (chunk if name in first else rest).column(name)
                for name in inspect
            }
            matched.add(columns, rows, preview_cap)
        if span.enabled:
            span.set("rows_selected", matched.n_rows)
            span.set("columns", len(inspect))
            span.set("chunks", chunks)
            span.set("partitions", len(live))
            span.set("partitions_skipped", skipped)
    metrics = get_metrics()
    metrics.increment("blaeu_store_partitions_scanned_total", len(live))
    metrics.increment("blaeu_store_scans_total")
    metrics.observe("blaeu_store_scan_seconds", time.perf_counter() - started)
    return matched


class Explorer:
    """Interactive navigation over one table.

    A state's map is a function of the table, the config and the state's
    *(selection, columns)* alone (builds are seeded from that content
    key), so an action path names the same map in every session and a
    zoom repeated after a rollback returns the map it returned before.

    Parameters
    ----------
    table:
        The table to explore.
    config:
        Engine knobs.
    themes:
        The table's themes, or a callable that resolves them on first
        access (the engine passes :meth:`Blaeu.themes`, so every session
        over a table shares one theme set).  Omitted, they are extracted
        on first access.
    graph_builder:
        Optional shared :class:`~repro.graph.dependency.GraphBuilder`.
        When the engine passes its builder, theme extraction across all
        sessions shares one column-code cache and (if a result cache is
        installed) one graph memo; otherwise this session gets a
        private builder.
    map_builder:
        Optional shared :class:`~repro.core.pipeline.MapBuilder`.  When
        the engine passes its builder, map construction across all
        sessions shares one staged pipeline (sample / feature-space /
        distance / clustering / description artifacts plus finished
        maps); otherwise this session gets a private, uncached builder.
    """

    def __init__(
        self,
        table: Table,
        config: BlaeuConfig | None = None,
        themes: ThemeSet | Callable[[], ThemeSet] | None = None,
        graph_builder: GraphBuilder | None = None,
        map_builder: MapBuilder | None = None,
    ) -> None:
        self._table = table
        self._config = config or BlaeuConfig()
        self._graph_builder = graph_builder or GraphBuilder()
        if themes is None:
            themes = partial(
                extract_themes,
                table,
                config=self._config,
                builder=self._graph_builder,
            )
        self._themes = themes
        self._map_builder = map_builder or MapBuilder()
        self._stack: list[ExplorationState] = []

    # ------------------------------------------------------------------
    # Themes
    # ------------------------------------------------------------------

    @property
    def table(self) -> Table:
        """The table under exploration."""
        return self._table

    @property
    def config(self) -> BlaeuConfig:
        """The engine configuration."""
        return self._config

    @property
    def graph_builder(self) -> GraphBuilder:
        """The dependency-graph builder (shared when the engine provides it)."""
        return self._graph_builder

    @property
    def map_builder(self) -> MapBuilder:
        """The map-pipeline builder (shared when the engine provides it)."""
        return self._map_builder

    def themes(self) -> ThemeSet:
        """The table's themes (resolved once, then kept)."""
        if not isinstance(self._themes, ThemeSet):
            self._themes = self._themes()
        return self._themes

    def local_themes(self) -> ThemeSet:
        """Themes of the *current selection* (a navigation deep-dive).

        Re-examines which columns move together inside the zoomed-in
        tuples — sub-populations often couple indicators differently
        than the whole table does.  Navigation-aware: the selection's
        column codes are gathered from the builder's cache by row index
        (no re-discretization), and repeated visits to the same
        selection hit the graph memo when a result cache is installed.

        Like every build its randomness is seeded from its content key
        (here: the table, the config and the selected rows), so
        inspecting a selection is read-only and repeatable.
        """
        indices = np.flatnonzero(self._table.scan_mask(self.state.selection))
        return extract_themes(
            self._table,
            config=self._config,
            builder=self._graph_builder,
            row_indices=indices,
        )

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------

    @property
    def state(self) -> ExplorationState:
        """The current exploration state."""
        if not self._stack:
            raise RuntimeError(
                "no active map; call open_theme() or open_columns() first"
            )
        return self._stack[-1]

    @property
    def depth(self) -> int:
        """Number of states on the stack (0 before the first map)."""
        return len(self._stack)

    def history(self) -> tuple[str, ...]:
        """The actions taken so far, oldest first."""
        return tuple(state.action for state in self._stack)

    # ------------------------------------------------------------------
    # Actions
    # ------------------------------------------------------------------

    def open_theme(self, theme: str | int | Theme) -> DataMap:
        """Select a theme and build the initial map over the whole table."""
        resolved = self._resolve_theme(theme)
        return self._push(
            selection=Everything(),
            columns=resolved.columns,
            action=f"open theme {resolved.name!r}",
        )

    def open_columns(self, columns: tuple[str, ...]) -> DataMap:
        """Build the initial map over an explicit column set."""
        for name in columns:
            self._table.column(name)
        return self._push(
            selection=Everything(),
            columns=tuple(columns),
            action=f"open columns {list(columns)}",
        )

    def zoom(self, region_id: str) -> DataMap:
        """Drill down into a region: re-cluster inside it (paper Fig. 1c).

        The region's predicate is conjoined with the current selection
        and a fresh map is built over the same columns.
        """
        state = self.state
        region = state.map.region(region_id)
        new_selection = And.of(state.selection, region.predicate)
        # An exact map already carries the region's size; re-deriving it
        # would scan the whole conjunction just to repeat that number.
        if state.map.counts_status == "exact":
            n_rows = region.n_rows
        else:
            n_rows = int(self._table.scan_mask(new_selection).sum())
        if n_rows < self._config.min_zoom_rows:
            raise ValueError(
                f"region {region_id!r} holds {n_rows} tuples; at least "
                f"{self._config.min_zoom_rows} are needed to zoom"
            )
        return self._push(
            selection=new_selection,
            columns=state.columns,
            action=f"zoom into {region_id} ({region.label})",
        )

    def project(self, theme: str | int | Theme) -> DataMap:
        """Re-map the current selection with another theme's columns (Fig. 1d)."""
        state = self.state
        resolved = self._resolve_theme(theme)
        return self._push(
            selection=state.selection,
            columns=resolved.columns,
            action=f"project onto theme {resolved.name!r}",
        )

    def project_columns(self, columns: tuple[str, ...]) -> DataMap:
        """Re-map the current selection with an explicit column set."""
        state = self.state
        for name in columns:
            self._table.column(name)
        return self._push(
            selection=state.selection,
            columns=tuple(columns),
            action=f"project onto columns {list(columns)}",
        )

    def highlight(
        self,
        region_id: str,
        columns: tuple[str, ...] | None = None,
    ) -> Highlight:
        """Inspect the tuples of a region without changing state (Fig. 1c).

        Returns a bounded preview plus univariate summaries for the
        requested columns (default: the active columns).  Only the
        matched cells of those columns are copied, each once
        (:class:`MatchedRows`), by **one chunked pass**
        (:func:`_highlight_pass`) that evaluates the predicate and
        collects the matches together: the full selection is never
        materialized, and no column but the predicate's and the
        highlighted ones is read.
        """
        state = self.state
        region = state.map.region(region_id)
        predicate = And.of(state.selection, region.predicate)
        inspect = tuple(columns) if columns else state.columns
        table = self._table
        for name in inspect:
            if not table.has_column(name):
                raise KeyError(
                    f"table {table.name!r} has no column {name!r}; "
                    f"available: {list(table.column_names)}"
                )
        matched = _highlight_pass(
            table, predicate, inspect, self._config.highlight_preview_rows
        )
        return matched.highlight(region_id, table, inspect)

    def rollback(self) -> DataMap:
        """Undo the latest zoom/project/open; returns the restored map."""
        if len(self._stack) < 2:
            raise RuntimeError("nothing to roll back to")
        self._stack.pop()
        return self.state.map

    # ------------------------------------------------------------------
    # Approximate → exact refinement
    # ------------------------------------------------------------------

    @property
    def needs_refine(self) -> bool:
        """Whether the current map still carries approximate counts."""
        return bool(self._stack) and self.state.map.counts_status != "exact"

    def refine(self) -> DataMap:
        """Upgrade the current map to exact region counts.

        With ``count_mode="approximate"`` navigation actions return
        immediately with sample-extrapolated counts; this runs the exact
        chunked routing pass over the full selection (through the shared
        builder, so another session's refinement — or a cached exact
        build — is reused), swaps the state's map, and returns it.  The
        result is bit-identical to a blocking exact build.  No-op on
        already-exact maps.
        """
        state = self.state
        if state.map.counts_status == "exact":
            return state.map
        exact = self._map_builder.refine(
            self._table,
            state.columns,
            config=self._config,
            selection=state.selection,
            current_map=state.map,
        )
        if exact is not state.map:
            self._stack[-1] = replace(state, map=exact)
        return exact

    def states(self) -> tuple[ExplorationState, ...]:
        """All states on the stack, oldest first (for the history panel)."""
        return tuple(self._stack)

    def goto(self, index: int) -> DataMap:
        """Roll back to the state at ``index`` (0 = the first map).

        A multi-step rollback: everything after ``index`` is discarded.
        """
        if not 0 <= index < len(self._stack):
            raise IndexError(
                f"state {index} out of range [0, {len(self._stack)})"
            )
        del self._stack[index + 1 :]
        return self.state.map

    def insights(self, region_id: str) -> "InsightReport":
        """Why is this region distinct from the rest of the selection?

        Contrasts the region's column distributions (numeric effect
        sizes, categorical lifts) against its siblings — the narrative
        the demo's "insights and serendipity" goal asks for.
        """
        from repro.core.insights import region_insights

        state = self.state
        region = state.map.region(region_id)
        selection = self._table.select(state.selection)
        return region_insights(selection, region.predicate)

    def suggest(self, limit: int = 5) -> "list[Suggestion]":
        """Ranked next actions for the current state (guided exploration).

        Before the first map: which theme to open.  Afterwards: which
        region to zoom into, which theme to project onto, which k to
        re-cluster with — scored from insight divergence, per-region
        silhouettes and dependency-graph weights.  A pure read
        (deterministic for a fixed state; no map is built, no state
        changes); see :mod:`repro.guide.recommend`.
        """
        from repro.guide.recommend import suggest_actions

        return suggest_actions(self, limit=limit)

    # ------------------------------------------------------------------
    # Implicit query
    # ------------------------------------------------------------------

    def sql(self, region_id: str | None = None) -> str:
        """The Select-Project query the user has implicitly written.

        With ``region_id``, the query of that region; otherwise the query
        of the current selection.
        """
        from repro.core.queries import state_to_sql

        state = self.state
        predicate = state.selection
        if region_id is not None:
            region = state.map.region(region_id)
            predicate = And.of(predicate, region.predicate)
        return state_to_sql(self._table.name, predicate, state.columns)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _resolve_theme(self, theme: str | int | Theme) -> Theme:
        if isinstance(theme, Theme):
            return theme
        return self.themes().theme(theme)

    def _push(
        self,
        selection: Predicate,
        columns: tuple[str, ...],
        action: str,
    ) -> DataMap:
        data_map = self._map_builder.build(
            self._table,
            columns,
            config=self._config,
            selection=selection,
        )
        self._stack.append(
            ExplorationState(
                selection=selection,
                columns=columns,
                map=data_map,
                action=action,
            )
        )
        return data_map
