"""Seeded inputs: the tables the servers hold and the walks clients take.

Everything here is a pure function of the seed.  The *shape* of the work
(three planted themes, their cluster counts and centres, the path
shapes) is fixed, so two seeds cost about the same; the seed decides the
noise in every cell and the order and targets of the walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.table.column import CategoricalColumn, NumericColumn
from repro.table.table import Table

#: Rows generated at a time (bounds the generator's scratch memory).
SLAB_ROWS = 1 << 18

#: Three themes of three numeric columns and one categorical column.
#: Theme ``a`` follows row order (``a_x`` is monotone up to its noise, so
#: zone maps prune zooms that split on it); ``b`` and ``c`` are drawn
#: independently per row.  Cluster counts: 3, 4 and 5.
THEMES = ("a", "b", "c")
_K = {"a": 3, "b": 4, "c": 5}
_CENTRES = {
    "a": np.array([[0.0, 6.0, -5.0], [0.0, -4.0, 4.0], [0.0, 1.0, 9.0]]),
    "b": np.array(
        [[-6.0, 5.0, 0.0], [5.0, 6.0, -7.0], [0.0, -6.0, 6.0], [8.0, -3.0, -2.0]]
    ),
    "c": np.array(
        [
            [7.0, 0.0, 3.0],
            [-7.0, 2.0, -4.0],
            [0.0, 8.0, -8.0],
            [1.0, -8.0, 0.0],
            [-3.0, -2.0, 9.0],
        ]
    ),
}
_NOISE = 0.8
_LABEL_FLIP = 0.08
COLUMNS = tuple(
    f"{theme}_{part}" for theme in THEMES for part in ("x", "y", "z", "kind")
)


def make_table(name: str, n_rows: int, seed: int) -> Table:
    """The ``n_rows`` x 12 benchmark table, generated slab by slab."""
    rng = np.random.default_rng([seed, n_rows, 0x5EED])
    numeric = {
        f"{theme}_{part}": np.empty(n_rows, dtype=np.float64)
        for theme in THEMES
        for part in "xyz"
    }
    kinds = {theme: np.empty(n_rows, dtype=np.int32) for theme in THEMES}
    for start in range(0, n_rows, SLAB_ROWS):
        stop = min(start + SLAB_ROWS, n_rows)
        count = stop - start
        position = np.arange(start, stop, dtype=np.float64) / n_rows
        for theme in THEMES:
            k = _K[theme]
            if theme == "a":
                labels = np.minimum((position * k).astype(np.int64), k - 1)
            else:
                labels = rng.integers(0, k, count)
            centres = _CENTRES[theme]
            for column, part in enumerate("xyz"):
                noise = rng.standard_normal(count, dtype=np.float32)
                if theme == "a" and part == "x":
                    # A ramp over row order: monotone at partition
                    # granularity, and it carries the cluster signal.
                    values = 30.0 * position + 0.05 * noise
                else:
                    values = centres[labels, column] + _NOISE * noise
                numeric[f"{theme}_{part}"][start:stop] = values
            flipped = rng.random(count, dtype=np.float32) < _LABEL_FLIP
            kinds[theme][start:stop] = np.where(
                flipped, rng.integers(0, k, count), labels
            )
    columns = []
    for theme in THEMES:
        for part in "xyz":
            columns.append(NumericColumn(f"{theme}_{part}", numeric[f"{theme}_{part}"]))
        columns.append(
            CategoricalColumn(
                f"{theme}_kind",
                kinds[theme],
                tuple(f"{theme}{index}" for index in range(_K[theme])),
            )
        )
    return Table(name, columns)


def write_csv(table: Table, path: Path, start: int = 0, stop: int | None = None) -> int:
    """Write rows ``[start, stop)`` of ``table`` as CSV; returns the row count.

    Numbers carry four decimals — what a sensor export looks like, and a
    third of the bytes ``repr`` would write.
    """
    stop = table.n_rows if stop is None else stop
    cells = []
    for column in table.columns:
        if isinstance(column, NumericColumn):
            values = np.round(column.values[start:stop], 4).tolist()
            cells.append([f"{value:.4f}" for value in values])
        else:
            labels = np.asarray(column.categories)
            cells.append(labels[column.codes[start:stop]].tolist())
    with path.open("w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(table.column_names) + "\n")
        handle.write("\n".join(map(",".join, zip(*cells))))
        handle.write("\n")
    return stop - start


# ----------------------------------------------------------------------
# Walk plans
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Step:
    """One client request of a path.

    ``kind`` is a session command (``zoom``, ``project``, ``highlight``,
    ``rollback``, ``map``, ``close``) or a stateless resource
    (``get_map``, ``suggestions``).  ``pick`` chooses the target: a rank
    among the current map's largest regions for ``zoom``/``highlight``,
    a theme index for ``project``, a cluster count for ``get_map``.
    """

    kind: str
    pick: int = 0


@dataclass(frozen=True)
class Walk:
    """One analyst session: open a theme of a table, then walk."""

    table: str
    theme: int
    steps: tuple[Step, ...]


def _cold_path(table: str, index: int, rng: np.random.Generator) -> Walk:
    """open 1 : zoom 3 : project 2 : highlight 2, first visits by design.

    Paths ``i`` and ``i + 3`` open the same theme, so the first zoom and
    highlight targets are spread by ``i // 3``; below a zoom every state
    is new anyway.
    """
    theme = index % 3
    spread = index // 3
    return Walk(
        table,
        theme,
        (
            Step("highlight", spread),
            Step("zoom", spread),
            Step("project", (theme + 1) % 3),
            Step("zoom", int(rng.integers(0, 3))),
            Step("highlight", int(rng.integers(0, 3))),
            Step("project", (theme + 2) % 3),
            Step("zoom", int(rng.integers(0, 3))),
        ),
    )


def _warm_path(table: str, index: int, rng: np.random.Generator) -> Walk:
    """The replayable mix: every request is answered from a cache tier.

    No highlight (never cached); ``rollback``/``close`` and the two
    stateless resources exercise the service stack alone.  Two of the
    eight requests are trivial, so the median request is a cache read.
    """
    theme = index % 3
    spread = index // 3
    return Walk(
        table,
        theme,
        (
            Step("zoom", spread),
            Step("project", (theme + 1) % 3),
            Step("zoom", int(rng.integers(0, 3))),
            Step("rollback"),
            Step("get_map", 2 + int(rng.integers(0, 3))),
            Step("suggestions"),
            Step("close"),
        ),
    )


def make_plan(
    kind: str, tables: tuple[str, ...], paths_per_table: int, seed: int
) -> tuple[Walk, ...]:
    """The walk plan: ``paths_per_table`` paths per table, seed-shuffled."""
    rng = np.random.default_rng([seed, len(tables), paths_per_table, 0x91A7])
    builder = {"cold": _cold_path, "warm": _warm_path}[kind]
    paths = [
        builder(table, index, rng)
        for table in tables
        for index in range(paths_per_table)
    ]
    order = rng.permutation(len(paths))
    return tuple(paths[i] for i in order)
