"""Unit tests for region insights (inside-vs-outside contrasts)."""

import numpy as np
import pytest

from repro.core.insights import region_insights
from repro.table.column import CategoricalColumn, NumericColumn
from repro.table.predicates import Comparison, Everything, Not
from repro.table.table import Table


@pytest.fixture
def contrasted(rng):
    """200 rows where rows with flag=='in' run high on x and are 'red'."""
    n = 200
    inside = np.arange(n) < 80
    x = np.where(inside, 10.0, 0.0) + rng.normal(0, 1, n)
    y = rng.normal(0, 1, n)  # uninformative
    color = np.where(
        inside,
        rng.choice(["red", "blue"], n, p=[0.9, 0.1]),
        rng.choice(["red", "blue"], n, p=[0.2, 0.8]),
    )
    flag = np.where(inside, "in", "out")
    table = Table(
        "t",
        [
            NumericColumn("x", x),
            NumericColumn("y", y),
            CategoricalColumn.from_labels("color", list(color)),
            CategoricalColumn.from_labels("flag", list(flag)),
        ],
    )
    return table


class TestRegionInsights:
    def test_strong_numeric_contrast_found(self, contrasted):
        report = region_insights(contrasted, Comparison("flag", "==", "in"))
        assert report.n_inside == 80
        top = report.numeric[0]
        assert top.column == "x"
        assert top.direction == "high"
        assert top.effect_size > 1.0

    def test_uninformative_column_filtered(self, contrasted):
        report = region_insights(contrasted, Comparison("flag", "==", "in"))
        assert all(insight.column != "y" for insight in report.numeric)

    def test_category_lift_found(self, contrasted):
        report = region_insights(contrasted, Comparison("flag", "==", "in"))
        reds = [i for i in report.categories if i.label == "red"]
        assert reds and reds[0].lift > 1.5

    def test_direction_flips_for_complement(self, contrasted):
        region = Comparison("flag", "==", "in")
        inside = region_insights(contrasted, region)
        outside = region_insights(contrasted, Not(region))
        (x_inside,) = [i for i in inside.numeric if i.column == "x"]
        (x_outside,) = [i for i in outside.numeric if i.column == "x"]
        assert x_inside.effect_size > 0
        assert x_outside.effect_size < 0

    def test_headline_reads_naturally(self, contrasted):
        report = region_insights(contrasted, Comparison("flag", "==", "in"))
        headline = report.headline()
        assert "high x" in headline

    def test_describe_contains_all_sections(self, contrasted):
        report = region_insights(contrasted, Comparison("flag", "==", "in"))
        text = report.describe()
        assert "80 tuples" in text
        assert "x: high" in text
        assert "lift" in text

    def test_degenerate_regions(self, contrasted):
        everything = region_insights(contrasted, Everything())
        assert everything.numeric == () and everything.categories == ()
        empty = region_insights(contrasted, Comparison("x", ">", 1e9))
        assert empty.n_inside == 0
        assert empty.headline() == (
            "no distinguishing columns at the current noise floor"
        )

    def test_empty_region_yields_empty_report(self, contrasted):
        report = region_insights(contrasted, Comparison("x", ">", 1e9))
        assert report.n_inside == 0
        assert report.numeric == ()
        assert report.categories == ()

    def test_single_row_region_yields_empty_report(self, contrasted):
        # One inside row has no variance: no contrast is statistically
        # meaningful, and the report must come back empty, not crash.
        xs = sorted(contrasted.column("x").values)
        report = region_insights(contrasted, Comparison("x", ">", xs[-2]))
        assert report.n_inside == 1
        assert report.numeric == ()
        assert report.categories == ()

    def test_region_covering_everything_yields_empty_report(self, contrasted):
        # n_outside == 0: there is nothing to contrast against.
        report = region_insights(contrasted, Comparison("x", ">", -1e9))
        assert report.n_outside == 0
        assert report.numeric == ()
        assert report.categories == ()

    def test_no_infinite_lift_for_region_exclusive_label(self, rng):
        # A label that only ever occurs inside the region would have
        # overall share outside of... well, lift = inside/overall is
        # finite, but a label with overall probability ~0 must never
        # produce an infinite or NaN lift.
        n = 100
        inside = np.arange(n) < 30
        label = np.where(inside, "only_in", "other")
        table = Table(
            "t",
            [
                NumericColumn("z", np.where(inside, 1.0, 0.0)),
                CategoricalColumn.from_labels("tag", list(label)),
            ],
        )
        report = region_insights(table, Comparison("z", ">", 0.5))
        for insight in report.categories:
            assert np.isfinite(insight.lift)

    def test_missing_values_tolerated(self, rng):
        x = rng.normal(0, 1, 100)
        x[:30] = np.nan
        table = Table(
            "t",
            [
                NumericColumn("x", x),
                NumericColumn("z", np.r_[np.full(50, 5.0), np.zeros(50)]),
            ],
        )
        report = region_insights(table, Comparison("z", ">", 2.5))
        assert report.n_inside == 50  # no crash on the NaN block


class TestExplorerIntegration:
    def test_insights_through_explorer(self):
        from repro.core.config import BlaeuConfig
        from repro.core.navigation import Explorer
        from synthetic import mixed_blobs

        planted = mixed_blobs(n_rows=300, k=2, seed=77)
        explorer = Explorer(
            planted.table, config=BlaeuConfig(map_k_values=(2,))
        )
        data_map = explorer.open_columns(("x0", "x1", "cat0"))
        leaf = data_map.leaves()[0]
        report = explorer.insights(leaf.region_id)
        assert report.n_inside == leaf.n_rows
        assert report.numeric or report.categories
