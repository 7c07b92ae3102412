"""Region insights: *why* is this cluster distinct?

The demo's goal is "triggering insights and serendipity" (§1) — the map
shows *that* a region exists; this module explains *what makes it
different* from the rest of the selection.  For the active region it
compares every column's distribution inside vs outside:

* numeric columns get a standardized mean difference (Cohen's d); the
  sign says whether the region runs high or low;
* categorical columns get per-label **lift** (P(label | region) /
  P(label)); labels concentrated in the region have lift ≫ 1.

Columns are ranked by effect size, so the first few lines of an
:class:`InsightReport` read like the caption a human analyst would write
("this cluster: long working hours, low income, mostly Mexico/Korea").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.table.column import CategoricalColumn, NumericColumn
from repro.table.predicates import Predicate
from repro.table.table import Table

__all__ = ["NumericInsight", "CategoryInsight", "InsightReport", "region_insights"]

#: Effects smaller than this are omitted from reports (noise floor).
MIN_EFFECT = 0.2

#: Labels need this many in-region rows before a lift is trusted.
MIN_LABEL_SUPPORT = 5

#: Contrasts a region's headline names.
HEADLINE_ITEMS = 4


@dataclass(frozen=True)
class NumericInsight:
    """One numeric column's inside-vs-outside contrast."""

    column: str
    inside_mean: float
    outside_mean: float
    effect_size: float  # Cohen's d; sign: + means region runs high

    @property
    def direction(self) -> str:
        """``high`` or ``low`` relative to the rest of the selection."""
        return "high" if self.effect_size > 0 else "low"

    def describe(self) -> str:
        """One human-readable line."""
        return (
            f"{self.column}: {self.direction} "
            f"({self.inside_mean:.3g} vs {self.outside_mean:.3g} outside, "
            f"d={self.effect_size:+.2f})"
        )


@dataclass(frozen=True)
class CategoryInsight:
    """One label over-represented (or depleted) in the region."""

    column: str
    label: str
    inside_share: float
    overall_share: float
    lift: float

    def describe(self) -> str:
        """One human-readable line."""
        return (
            f"{self.column} = {self.label!r}: {self.inside_share:.0%} of the "
            f"region vs {self.overall_share:.0%} overall "
            f"(lift {self.lift:.1f}x)"
        )


@dataclass(frozen=True)
class InsightReport:
    """All contrasts for one region, strongest first."""

    n_inside: int
    n_outside: int
    numeric: tuple[NumericInsight, ...]
    categories: tuple[CategoryInsight, ...]

    def headline(self) -> str:
        """The analyst's one-line caption for the region: its
        :data:`HEADLINE_ITEMS` strongest contrasts, numeric first."""
        parts: list[str] = []
        for insight in self.numeric[:HEADLINE_ITEMS]:
            parts.append(f"{insight.direction} {insight.column}")
        remaining = HEADLINE_ITEMS - len(parts)
        for insight in self.categories[:remaining]:
            parts.append(f"mostly {insight.column}={insight.label}")
        if not parts:
            return "no distinguishing columns at the current noise floor"
        return ", ".join(parts)

    def describe(self) -> str:
        """The full multi-line report."""
        lines = [
            f"region: {self.n_inside} tuples vs {self.n_outside} outside",
            f"headline: {self.headline()}",
        ]
        lines += ["  " + insight.describe() for insight in self.numeric]
        lines += ["  " + insight.describe() for insight in self.categories]
        return "\n".join(lines)


def region_insights(table: Table, region_predicate: Predicate) -> InsightReport:
    """Contrast a region against the rest of ``table``, column by column.

    Parameters
    ----------
    table:
        The active selection (the region is a subset of it).
    region_predicate:
        Which rows form the region.

    Numeric |d| and |log2(lift)| below :data:`MIN_EFFECT` are dropped.
    """
    inside_mask = region_predicate.mask(table)
    n_inside = int(inside_mask.sum())
    n_outside = table.n_rows - n_inside

    numeric: list[NumericInsight] = []
    categories: list[CategoryInsight] = []
    # An empty or single-row region has no inside distribution to
    # contrast (Cohen's d needs at least two values and a non-zero
    # pooled spread), and a region covering the whole selection has no
    # outside — all three degenerate to an empty report rather than
    # per-column edge cases.
    if n_inside < 2 or n_outside == 0:
        return InsightReport(
            n_inside=n_inside, n_outside=n_outside,
            numeric=(), categories=(),
        )

    for name in table.column_names:
        column = table.column(name)
        if isinstance(column, NumericColumn):
            insight = _numeric_contrast(column, inside_mask)
            if insight is not None and abs(insight.effect_size) >= MIN_EFFECT:
                numeric.append(insight)
        elif isinstance(column, CategoricalColumn):
            categories.extend(_category_contrasts(column, inside_mask))

    numeric.sort(key=lambda i: -abs(i.effect_size))
    categories.sort(key=lambda i: -abs(np.log(max(i.lift, 1e-9))))
    return InsightReport(
        n_inside=n_inside,
        n_outside=n_outside,
        numeric=tuple(numeric),
        categories=tuple(categories),
    )


def _numeric_contrast(
    column: NumericColumn, inside_mask: np.ndarray
) -> NumericInsight | None:
    values = column.values
    present = column.present_mask
    inside = values[inside_mask & present]
    outside = values[~inside_mask & present]
    if inside.size < 2 or outside.size < 2:
        return None
    pooled = np.concatenate([inside, outside]).std()
    if pooled == 0.0:
        return None
    effect = float((inside.mean() - outside.mean()) / pooled)
    return NumericInsight(
        column=column.name,
        inside_mean=float(inside.mean()),
        outside_mean=float(outside.mean()),
        effect_size=effect,
    )


def _category_contrasts(
    column: CategoricalColumn, inside_mask: np.ndarray
) -> list[CategoryInsight]:
    present = column.present_mask
    inside_codes = column.codes[inside_mask & present]
    all_codes = column.codes[present]
    if inside_codes.size == 0 or all_codes.size == 0:
        return []
    n_categories = len(column.categories)
    inside_counts = np.bincount(inside_codes, minlength=n_categories)
    overall_counts = np.bincount(all_codes, minlength=n_categories)

    out: list[CategoryInsight] = []
    for code in range(n_categories):
        # The support floor must come first: a label seen only a few
        # times inside the region has an unstable share, and when the
        # label never occurs *outside* the region its overall share
        # approaches the inside share scaled by the region fraction —
        # without the floor, tiny regions would report huge (in the
        # limit, unbounded) lifts from a handful of rows.
        if inside_counts[code] < MIN_LABEL_SUPPORT:
            continue
        inside_share = inside_counts[code] / inside_codes.size
        overall_share = overall_counts[code] / all_codes.size
        if overall_share <= 0.0:
            # Unreachable while the region is a subset of the table
            # (inside counts contribute to overall counts), but kept as
            # a hard guard: a zero outside-probability label must never
            # divide through to an infinite lift.
            continue
        lift = inside_share / overall_share
        if not np.isfinite(lift):
            continue
        if abs(np.log2(max(lift, 1e-9))) < MIN_EFFECT:
            continue
        out.append(
            CategoryInsight(
                column=column.name,
                label=column.categories[code],
                inside_share=float(inside_share),
                overall_share=float(overall_share),
                lift=float(lift),
            )
        )
    return out
