"""Theme extraction — vertical clustering of columns (paper §2–3).

A *theme* is "a group of columns which describe the same aspect of the
data" — unemployment statistics, health indicators, labor conditions.
Themes are obtained by partitioning the column dependency graph with PAM;
each theme is named after its medoid column (the most central indicator
of the group).  The theme view also lets users *edit* themes (Figure 5),
so :class:`ThemeSet` supports moving columns and renaming.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import BlaeuConfig
from repro.graph.dependency import DependencyGraph, GraphBuilder
from repro.graph.partition import pam_partition
from repro.obs.trace import current_span
from repro.table.column import ColumnKind
from repro.table.schema import KeyScan
from repro.table.table import Table

__all__ = ["Theme", "ThemeSet", "default_theme_k_grid", "extract_themes"]

#: The most candidate theme counts one extraction scores.
MAX_K_POINTS = 14


def default_theme_k_grid(n_columns: int) -> tuple[int, ...]:
    """A logarithmic candidate grid for the number of themes.

    Dense at small k (where one step changes the picture) and sparse at
    large k, topping out near ``n_columns / 5`` — wide tables carry many
    themes, but never one theme per column or two — and thinned evenly
    to at most :data:`MAX_K_POINTS` candidates.
    """
    if n_columns < 3:
        return (2,)
    top = max(3, min(n_columns - 1, round(n_columns / 5) + 2))
    grid: list[int] = []
    value = 2.0
    while round(value) <= top:
        k = round(value)
        if not grid or k > grid[-1]:
            grid.append(k)
        value *= 1.35
    if grid[-1] != top:
        grid.append(top)
    if len(grid) > MAX_K_POINTS:
        picks = {
            grid[round(i * (len(grid) - 1) / (MAX_K_POINTS - 1))]
            for i in range(MAX_K_POINTS)
        }
        grid = sorted(picks)
    return tuple(grid)


@dataclass(frozen=True)
class Theme:
    """One group of mutually dependent columns."""

    name: str
    columns: tuple[str, ...]
    cohesion: float

    @property
    def size(self) -> int:
        """Number of columns in the theme."""
        return len(self.columns)

    def __contains__(self, column: object) -> bool:
        return column in self.columns


@dataclass(frozen=True)
class ThemeSet:
    """All themes of a table, plus the evidence they were built from."""

    themes: tuple[Theme, ...]
    graph: DependencyGraph
    silhouette: float
    k_scores: dict[int, float] = field(default_factory=dict)
    excluded_keys: tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.themes)

    def __iter__(self):
        return iter(self.themes)

    def __getitem__(self, index: int) -> Theme:
        return self.themes[index]

    def theme(self, ref: str | int) -> Theme:
        """The theme called ``ref`` or, for an ``int``, at that position;
        raises ``KeyError`` when absent.

        Positions arrive off the wire, so a negative one is absent too:
        ``-1`` must not quietly mean "the last theme".
        """
        if isinstance(ref, int):
            if 0 <= ref < len(self.themes):
                return self.themes[ref]
            raise KeyError(f"no theme {ref}; the table has {len(self.themes)}")
        for theme in self.themes:
            if theme.name == ref:
                return theme
        raise KeyError(
            f"no theme named {ref!r}; available: {[t.name for t in self.themes]}"
        )

    def theme_of(self, column: str) -> Theme:
        """The theme containing ``column``."""
        for theme in self.themes:
            if column in theme.columns:
                return theme
        raise KeyError(f"column {column!r} belongs to no theme")

    def names(self) -> tuple[str, ...]:
        """All theme names, largest theme first."""
        return tuple(theme.name for theme in self.themes)


def extract_themes(
    table: Table,
    config: BlaeuConfig | None = None,
    columns: tuple[str, ...] | None = None,
    builder: GraphBuilder | None = None,
    row_indices: np.ndarray | None = None,
) -> ThemeSet:
    """Detect the themes of a table.

    Keys are excluded (they depend on nothing), the dependency graph is
    estimated from a row sample seeded by the graph's content key (see
    :class:`GraphBuilder`), and PAM — which draws nothing — partitions
    it with k chosen by the silhouette over ``config.theme_k_values``.
    Key detection is a :class:`~repro.table.schema.KeyScan` over the
    candidate columns: on a table of continuous measurements and small
    dictionaries it reads one chunk per numeric column, so no step here
    is a pass over the table.  The chunks it read are set as
    ``key_scan_chunks`` on the caller's span.

    ``builder`` is the engine's shared :class:`GraphBuilder` (one is
    created ad hoc when omitted): it reuses cached column codes across
    navigation and memoizes finished graphs when a result cache is
    installed.  ``row_indices`` restricts theme detection to those
    base-table rows — the themes *of the current selection* — and is
    where the code reuse pays off: the selection's codes are a row
    gather, not a re-discretization.  Store-backed tables never
    materialize in full: sampled rows are pushdown-gathered, and
    whole-table builds stream chunked scans.
    """
    config = config or BlaeuConfig()
    builder = builder or GraphBuilder()

    candidates = list(columns) if columns is not None else list(table.column_names)
    scan = KeyScan(table)
    keys = set(scan.keys(candidates))
    # Near-key categoricals (e.g. 1,500 region names) carry identity, not
    # structure — exclude them just like the preprocessing stage does.
    for name in candidates:
        if table.kind(name) is ColumnKind.CATEGORICAL and scan.wider_than(
            table.column(name), config.max_categorical_cardinality
        ):
            keys.add(name)
    span = current_span()
    if span is not None:
        span.set("key_scan_chunks", scan.chunks)
    kept = tuple(c for c in candidates if c not in keys)
    excluded = tuple(c for c in candidates if c in keys)
    if len(kept) < 2:
        raise ValueError(
            "theme extraction needs at least two non-key columns; "
            f"got {list(kept)} (keys excluded: {list(excluded)})"
        )

    graph = builder.build(
        table,
        columns=kept,
        sample=config.dependency_sample_size,
        seed=config.seed,
        row_indices=row_indices,
        bin_sample_size=config.graph_bin_sample_size,
    )
    k_values = config.theme_k_values
    if k_values is None:
        k_values = default_theme_k_grid(len(kept))
    groups, selection = pam_partition(graph, k_values=k_values)

    themes = tuple(
        Theme(
            name=group[0],
            columns=tuple(group),
            cohesion=_cohesion(graph, tuple(group)),
        )
        for group in sorted(groups, key=lambda g: (-len(g), g[0]))
    )
    return ThemeSet(
        themes=themes,
        graph=graph,
        silhouette=selection.best.silhouette,
        k_scores=selection.scores(),
        excluded_keys=excluded,
    )


def _cohesion(graph: DependencyGraph, columns: tuple[str, ...]) -> float:
    """Mean pairwise dependency inside a column group (1.0 for singletons).

    Vectorized over the graph's weight matrix: one fancy-indexed
    submatrix instead of O(m²) scalar ``weight()`` lookups — this runs
    per theme on every extraction *and* on every interactive theme edit,
    where wide tables (hundreds of columns) made the loop noticeable.
    """
    if len(columns) < 2:
        return 1.0
    index = {name: i for i, name in enumerate(graph.columns)}
    rows = np.asarray([index[name] for name in columns], dtype=np.intp)
    block = graph.weights[np.ix_(rows, rows)]
    m = rows.size
    # Sum of the strict upper triangle over the number of pairs.
    return float((block.sum() - np.trace(block)) / (m * (m - 1)))
