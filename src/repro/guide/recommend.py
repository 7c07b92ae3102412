"""Action recommendation: *where should the exploration go next?*

Blaeu navigates but never suggests — the analyst stares at a map and
picks a region, a theme, a k.  Follow-up systems (Clustrophile 2,
Clusters-in-Focus) showed that ranked guidance over the exploration
space is what turns a navigation tool into an assistant.  This module
enumerates the candidate next actions from one exploration state and
scores them **only with signals the system already computes**:

* ``zoom`` into a leaf region — scored by the region's insight
  divergence (top numeric effect size / categorical lift from
  :func:`~repro.core.insights.region_insights`), its clustering
  uncertainty (low per-region silhouette: heterogeneous regions hide
  sub-structure worth re-clustering), and its size fraction;
* ``project`` onto another theme — scored by the mean dependency-graph
  edge weight between the active columns and the candidate theme's
  columns (high cross-NMI: the new axes are *related* to what the user
  is looking at, not a topic change) plus the theme's own cohesion;
* ``recluster`` with a different k — scored by how poorly the current
  k fits (low map silhouette) discounted by the distance |k' − k|;
* ``open_theme`` (before the first map) — scored by cohesion weighted
  by relative theme size.

Every score is deterministic for a fixed (table content, config,
exploration state): nothing here reads the cache, the clock or a
generator, so the ranked list is identical across cache warmth and
worker counts — which is what makes it safe to *prefetch* the top
suggestions (:mod:`repro.guide.prefetch`) without changing what the
user would have been recommended.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.config import BlaeuConfig
from repro.core.datamap import DataMap
from repro.core.insights import InsightReport, region_insights
from repro.core.themes import ThemeSet
from repro.table.predicates import And, Everything, Predicate
from repro.table.table import Table

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.navigation import Explorer

__all__ = [
    "MAX_INSIGHT_ROWS",
    "Suggestion",
    "initial_suggestions",
    "score_state",
    "suggest_actions",
    "suggestion_request",
]

#: Selections larger than this skip the per-region insight pass when
#: scoring zoom candidates (silhouette + size still rank them).  The
#: cutoff depends only on the map's row count, so ranking stays
#: deterministic for a fixed state.
MAX_INSIGHT_ROWS = 50_000

#: Weights of the zoom score components (divergence, uncertainty, size).
_ZOOM_WEIGHTS = (0.45, 0.30, 0.25)


@dataclass(frozen=True)
class Suggestion:
    """One ranked candidate next action.

    ``action`` is one of ``open_theme`` / ``zoom`` / ``project`` /
    ``recluster``; ``target`` identifies what to act on (theme name,
    region id, or k rendered as a string).  ``score`` is in [0, 1] and
    comparable across action kinds; ``reason`` is the one-line
    explanation shown to the user.
    """

    action: str
    target: str
    score: float
    reason: str

    def describe(self) -> str:
        """One human-readable line for CLI output."""
        return f"{self.action} {self.target}  [{self.score:.3f}]  {self.reason}"


def _clip01(value: float) -> float:
    if not np.isfinite(value):
        return 0.0
    return float(min(1.0, max(0.0, value)))


def _divergence(report: InsightReport) -> float:
    """The region's strongest contrast, squashed into [0, 1].

    Numeric effects are Cohen's d (|d| ≈ 2 is already a dramatic
    separation); categorical effects are |log2(lift)| on the same
    scale.  The strongest of either, divided by 2 and clipped.
    """
    top = 0.0
    for insight in report.numeric:
        top = max(top, abs(insight.effect_size))
    for insight in report.categories:
        top = max(top, abs(float(np.log2(max(insight.lift, 1e-9)))))
    return _clip01(top / 2.0)


def initial_suggestions(themes: ThemeSet, limit: int = 5) -> list[Suggestion]:
    """Ranked ``open_theme`` suggestions before the first map.

    Cohesion says the theme's columns genuinely move together; the
    square-rooted size fraction prefers themes that cover more of the
    table without letting a giant incoherent theme win on bulk alone.
    """
    total = sum(theme.size for theme in themes) or 1
    out = [
        Suggestion(
            action="open_theme",
            target=theme.name,
            score=_clip01(
                theme.cohesion * float(np.sqrt(theme.size / total))
            ),
            reason=(
                f"cohesion {theme.cohesion:.2f} over "
                f"{theme.size} columns"
            ),
        )
        for theme in themes
    ]
    return _ranked(out, limit)


def score_state(
    table: Table,
    config: BlaeuConfig,
    themes: ThemeSet,
    data_map: DataMap,
    columns: tuple[str, ...],
    selection: Predicate,
    limit: int = 5,
) -> list[Suggestion]:
    """Ranked next actions from one (selection, columns, map) state."""
    suggestions: list[Suggestion] = []
    suggestions.extend(_zoom_candidates(table, config, data_map, selection))
    suggestions.extend(_project_candidates(themes, columns))
    suggestions.extend(_recluster_candidates(config, data_map))
    return _ranked(suggestions, limit)


def suggest_actions(explorer: "Explorer", limit: int = 5) -> list[Suggestion]:
    """Ranked next actions for an explorer session.

    Before the first map the candidates are the themes to open;
    afterwards they are zooms, projections and re-clusterings of the
    current state.  Purely a read: no map is built, no state changes,
    and the ranking is deterministic for a fixed (table, config, state).
    """
    if explorer.depth == 0:
        return initial_suggestions(explorer.themes(), limit=limit)
    state = explorer.state
    return score_state(
        explorer.table,
        explorer.config,
        explorer.themes(),
        state.map,
        state.columns,
        state.selection,
        limit=limit,
    )


def suggestion_request(
    suggestion: Suggestion,
    themes: ThemeSet,
    data_map: DataMap | None,
    columns: tuple[str, ...],
    selection: Predicate | None,
) -> tuple[Predicate, tuple[str, ...], int | None]:
    """The build request ``(selection, columns, k)`` a suggestion implies.

    Mirrors exactly what :class:`~repro.core.navigation.Explorer` would
    pass to :meth:`~repro.core.pipeline.MapBuilder.build` if the user
    took the action — including ``And.of`` selection composition — so a
    speculative build lands under the *same* cache key the foreground
    navigation would look up.
    """
    if suggestion.action == "open_theme":
        return Everything(), themes.theme(suggestion.target).columns, None
    if selection is None or data_map is None:
        raise ValueError(
            f"suggestion {suggestion.action!r} needs an active state"
        )
    if suggestion.action == "zoom":
        region = data_map.region(suggestion.target)
        return And.of(selection, region.predicate), tuple(columns), None
    if suggestion.action == "project":
        return selection, themes.theme(suggestion.target).columns, None
    if suggestion.action == "recluster":
        return selection, tuple(columns), int(suggestion.target)
    raise ValueError(f"unknown suggestion action {suggestion.action!r}")


# ----------------------------------------------------------------------
# Candidate enumeration
# ----------------------------------------------------------------------


def _zoom_candidates(
    table: Table,
    config: BlaeuConfig,
    data_map: DataMap,
    selection: Predicate,
) -> list[Suggestion]:
    leaves = [
        region
        for region in data_map.leaves()
        if config.min_zoom_rows <= region.n_rows < data_map.n_rows
    ]
    if not leaves:
        return []
    selection_rows = None
    if data_map.n_rows <= MAX_INSIGHT_ROWS:
        selection_rows = table.select(selection)
    w_div, w_sil, w_size = _ZOOM_WEIGHTS
    out: list[Suggestion] = []
    for region in leaves:
        divergence = 0.0
        if selection_rows is not None:
            report = region_insights(selection_rows, region.predicate)
            divergence = _divergence(report)
        uncertainty = 1.0 - _clip01(region.silhouette)
        size = region.n_rows / max(data_map.n_rows, 1)
        score = w_div * divergence + w_sil * uncertainty + w_size * size
        out.append(
            Suggestion(
                action="zoom",
                target=region.region_id,
                score=_clip01(score),
                reason=(
                    f"{region.label}: divergence {divergence:.2f}, "
                    f"silhouette {region.silhouette:.2f}, "
                    f"{region.n_rows} rows"
                ),
            )
        )
    return out


def _project_candidates(
    themes: ThemeSet, columns: tuple[str, ...]
) -> list[Suggestion]:
    graph = themes.graph
    known = set(graph.columns)
    active = set(columns)
    out: list[Suggestion] = []
    for theme in themes:
        if set(theme.columns) == active:
            continue
        weights = [
            graph.weight(a, b)
            for a in columns
            for b in theme.columns
            if a != b and a in known and b in known
        ]
        cross = float(np.mean(weights)) if weights else 0.0
        score = 0.6 * _clip01(cross) + 0.4 * _clip01(theme.cohesion)
        out.append(
            Suggestion(
                action="project",
                target=theme.name,
                score=_clip01(score),
                reason=(
                    f"cross-dependency {cross:.2f} with the active "
                    f"columns, cohesion {theme.cohesion:.2f}"
                ),
            )
        )
    return out


def _recluster_candidates(
    config: BlaeuConfig, data_map: DataMap
) -> list[Suggestion]:
    misfit = 1.0 - _clip01(data_map.silhouette)
    out: list[Suggestion] = []
    for k in config.map_k_values:
        if k == data_map.k:
            continue
        score = 0.5 * misfit / (1 + abs(k - data_map.k))
        out.append(
            Suggestion(
                action="recluster",
                target=str(k),
                score=_clip01(score),
                reason=(
                    f"current k={data_map.k} fits at silhouette "
                    f"{data_map.silhouette:.2f}"
                ),
            )
        )
    return out


def _ranked(suggestions: list[Suggestion], limit: int) -> list[Suggestion]:
    """Deterministic ranking: score descending, (action, target) ties."""
    suggestions.sort(key=lambda s: (-s.score, s.action, s.target))
    return suggestions[: max(limit, 0)]
