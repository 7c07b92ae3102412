"""Text histograms and scatter plots — the highlight inspectors.

"For more details, our prototype provides classic univariate and
bivariate visualization methods, such as histograms and scatter-plots"
(paper §2).  These render to fixed-width text, deterministic under a
fixed input, so examples print them and tests assert on their shape.
"""

from __future__ import annotations

import numpy as np

from repro.table.column import CategoricalColumn, NumericColumn

__all__ = ["text_histogram", "text_scatter"]

#: A histogram's numeric bins (and most category bars) and its bar width.
HISTOGRAM_BINS = 10
BAR_WIDTH = 40

#: A scatter plot's grid, in characters.
SCATTER_WIDTH = 50
SCATTER_HEIGHT = 18


def text_histogram(column: NumericColumn | CategoricalColumn) -> str:
    """A horizontal-bar histogram of one column.

    Numeric columns are binned into :data:`HISTOGRAM_BINS` equal-width
    intervals; categorical columns get one bar per label (most frequent
    first, at most that many).  Missing cells are counted on a separate
    ∅ bar when present.
    """
    lines = [f"{column.name} ({len(column)} rows)"]
    if isinstance(column, NumericColumn):
        present = column.present_values()
        if present.size == 0:
            return "\n".join(lines + ["  (all values missing)"])
        low, high = float(present.min()), float(present.max())
        if low == high:
            edges = np.asarray([low, high])
            counts = np.asarray([present.size])
        else:
            counts, edges = np.histogram(present, bins=HISTOGRAM_BINS)
        top = max(int(counts.max()), 1)
        for b, count in enumerate(counts):
            bar = "█" * round(BAR_WIDTH * count / top)
            lines.append(
                f"  [{edges[b]:>10.3g}, {edges[b + 1]:>10.3g}) "
                f"{bar} {count}"
            )
    else:
        counts = column.value_counts()
        if not counts:
            return "\n".join(lines + ["  (all values missing)"])
        top = max(counts.values())
        for label, count in list(counts.items())[:HISTOGRAM_BINS]:
            bar = "█" * round(BAR_WIDTH * count / top)
            lines.append(f"  {label[:18]:<18} {bar} {count}")
    if column.n_missing:
        lines.append(f"  {'∅ missing':<18} {column.n_missing}")
    return "\n".join(lines)


def text_scatter(x: NumericColumn, y: NumericColumn) -> str:
    """A character-grid scatter plot of two numeric columns, on a
    :data:`SCATTER_WIDTH` × :data:`SCATTER_HEIGHT` grid.

    Cells hold ``·`` for 1 point, ``o`` for a few, ``●`` for many; rows
    with a missing value in either column are dropped.
    """
    width, height = SCATTER_WIDTH, SCATTER_HEIGHT
    both = x.present_mask & y.present_mask
    xs = x.values[both]
    ys = y.values[both]
    header = f"{y.name} vs {x.name} ({xs.size} points)"
    if xs.size == 0:
        return header + "\n  (no complete pairs)"

    x_low, x_high = float(xs.min()), float(xs.max())
    y_low, y_high = float(ys.min()), float(ys.max())
    x_span = x_high - x_low or 1.0
    y_span = y_high - y_low or 1.0
    grid = np.zeros((height, width), dtype=np.int64)
    cols = np.minimum(((xs - x_low) / x_span * (width - 1)).astype(int), width - 1)
    rows = np.minimum(((ys - y_low) / y_span * (height - 1)).astype(int), height - 1)
    np.add.at(grid, (rows, cols), 1)

    lines = [header]
    for r in range(height - 1, -1, -1):  # y grows upward
        row_chars = []
        for c in range(width):
            count = grid[r, c]
            if count == 0:
                row_chars.append(" ")
            elif count == 1:
                row_chars.append("·")
            elif count <= 4:
                row_chars.append("o")
            else:
                row_chars.append("●")
        lines.append("|" + "".join(row_chars))
    lines.append("+" + "-" * width)
    lines.append(f" x: [{x_low:.3g}, {x_high:.3g}]  y: [{y_low:.3g}, {y_high:.3g}]")
    return "\n".join(lines)
