"""Unit tests for the four navigational actions (paper §2)."""

import numpy as np
import pytest

from repro.core.config import BlaeuConfig
from repro.core.navigation import Explorer
from repro.obs.metrics import reset_metrics
from synthetic import mixed_blobs

CONFIG = BlaeuConfig(map_k_values=(2, 3), min_zoom_rows=10)


@pytest.fixture
def explorer():
    planted = mixed_blobs(n_rows=500, k=3, seed=31)
    return Explorer(planted.table, config=CONFIG)


class TestOpen:
    def test_open_columns_builds_initial_map(self, explorer):
        data_map = explorer.open_columns(("x0", "x1", "cat0"))
        assert explorer.depth == 1
        assert data_map.n_rows == 500
        assert explorer.state.columns == ("x0", "x1", "cat0")

    def test_open_theme_by_index(self, explorer):
        data_map = explorer.open_theme(0)
        assert data_map.n_rows == 500
        assert "open theme" in explorer.history()[0]

    def test_state_before_open_rejected(self, explorer):
        with pytest.raises(RuntimeError, match="open_theme"):
            explorer.state

    def test_unknown_column_rejected(self, explorer):
        with pytest.raises(KeyError):
            explorer.open_columns(("nope",))


class TestZoom:
    def test_zoom_restricts_selection(self, explorer):
        data_map = explorer.open_columns(("x0", "x1"))
        target = max(data_map.leaves(), key=lambda r: r.n_rows)
        zoomed = explorer.zoom(target.region_id)
        assert zoomed.n_rows == target.n_rows
        assert explorer.depth == 2

    def test_zoom_into_unknown_region_rejected(self, explorer):
        explorer.open_columns(("x0", "x1"))
        with pytest.raises(KeyError):
            explorer.zoom("r99")

    def test_zoom_into_tiny_region_rejected(self):
        planted = mixed_blobs(n_rows=80, k=2, seed=3)
        explorer = Explorer(
            planted.table,
            config=BlaeuConfig(map_k_values=(2,), min_zoom_rows=79),
        )
        data_map = explorer.open_columns(("x0", "x1"))
        smallest = min(data_map.leaves(), key=lambda r: r.n_rows)
        with pytest.raises(ValueError, match="tuples"):
            explorer.zoom(smallest.region_id)

    def test_nested_zoom_composes_predicates(self, explorer):
        data_map = explorer.open_columns(("x0", "x1"))
        first = max(data_map.leaves(), key=lambda r: r.n_rows)
        second_map = explorer.zoom(first.region_id)
        second = max(second_map.leaves(), key=lambda r: r.n_rows)
        explorer.zoom(second.region_id)
        sql = explorer.sql()
        # Both zoom conditions appear in the implicit query.
        assert sql.count("WHERE") == 1
        assert explorer.state.map.n_rows <= first.n_rows


class TestProject:
    def test_project_changes_columns_keeps_selection(self, explorer):
        data_map = explorer.open_columns(("x0", "x1"))
        target = max(data_map.leaves(), key=lambda r: r.n_rows)
        explorer.zoom(target.region_id)
        selected_rows = explorer.state.map.n_rows
        projected = explorer.project_columns(("x2", "cat0"))
        assert projected.n_rows == selected_rows
        assert explorer.state.columns == ("x2", "cat0")

    def test_project_by_theme_index(self, explorer):
        explorer.open_columns(("x0", "x1"))
        explorer.project(0)
        assert "project onto theme" in explorer.history()[-1]


class TestHighlight:
    def test_highlight_returns_summaries(self, explorer):
        data_map = explorer.open_columns(("x0", "x1", "cat0"))
        leaf = data_map.leaves()[0]
        highlight = explorer.highlight(leaf.region_id)
        assert highlight.n_rows == leaf.n_rows
        assert "x0" in highlight.numeric_summaries
        assert "cat0" in highlight.category_counts
        assert len(highlight.preview) <= CONFIG.highlight_preview_rows

    def test_highlight_with_custom_columns(self, explorer):
        data_map = explorer.open_columns(("x0", "x1"))
        leaf = data_map.leaves()[0]
        highlight = explorer.highlight(leaf.region_id, columns=("cat1",))
        assert highlight.columns == ("cat1",)
        assert "cat1" in highlight.category_counts

    def test_highlight_does_not_change_state(self, explorer):
        data_map = explorer.open_columns(("x0", "x1"))
        before = explorer.depth
        explorer.highlight(data_map.leaves()[0].region_id)
        assert explorer.depth == before


class TestRollback:
    def test_rollback_restores_previous_map(self, explorer):
        first = explorer.open_columns(("x0", "x1"))
        target = max(first.leaves(), key=lambda r: r.n_rows)
        explorer.zoom(target.region_id)
        restored = explorer.rollback()
        assert restored is first
        assert explorer.depth == 1

    def test_rollback_below_first_state_rejected(self, explorer):
        explorer.open_columns(("x0", "x1"))
        with pytest.raises(RuntimeError):
            explorer.rollback()

    def test_every_action_is_reversible(self, explorer):
        # zoom, project, zoom — then three rollbacks return to the start.
        first = explorer.open_columns(("x0", "x1"))
        target = max(first.leaves(), key=lambda r: r.n_rows)
        explorer.zoom(target.region_id)
        explorer.project_columns(("x2",))
        inner = max(
            explorer.state.map.leaves(), key=lambda r: r.n_rows
        )
        explorer.zoom(inner.region_id)
        explorer.rollback()
        explorer.rollback()
        explorer.rollback()
        assert explorer.state.map is first
        assert explorer.depth == 1


class TestStatesAndGoto:
    def test_states_lists_stack_oldest_first(self, explorer):
        first = explorer.open_columns(("x0", "x1"))
        target = max(first.leaves(), key=lambda r: r.n_rows)
        explorer.zoom(target.region_id)
        states = explorer.states()
        assert len(states) == 2
        assert states[0].map is first
        assert "zoom" in states[1].action

    def test_goto_discards_later_states(self, explorer):
        first = explorer.open_columns(("x0", "x1"))
        target = max(first.leaves(), key=lambda r: r.n_rows)
        explorer.zoom(target.region_id)
        explorer.project_columns(("x2",))
        restored = explorer.goto(0)
        assert restored is first
        assert explorer.depth == 1

    def test_goto_current_state_is_noop(self, explorer):
        explorer.open_columns(("x0", "x1"))
        explorer.goto(0)
        assert explorer.depth == 1

    def test_goto_out_of_range(self, explorer):
        explorer.open_columns(("x0", "x1"))
        with pytest.raises(IndexError):
            explorer.goto(3)


class TestInsights:
    def test_insights_match_region_size(self, explorer):
        data_map = explorer.open_columns(("x0", "x1", "cat0"))
        leaf = max(data_map.leaves(), key=lambda r: r.n_rows)
        report = explorer.insights(leaf.region_id)
        assert report.n_inside == leaf.n_rows
        assert report.n_inside + report.n_outside == data_map.n_rows

    def test_insights_after_zoom_contrast_within_selection(self, explorer):
        data_map = explorer.open_columns(("x0", "x1"))
        target = max(data_map.leaves(), key=lambda r: r.n_rows)
        zoomed = explorer.zoom(target.region_id)
        leaf = zoomed.leaves()[0]
        report = explorer.insights(leaf.region_id)
        # The contrast universe is the zoomed selection, not the table.
        assert report.n_inside + report.n_outside == zoomed.n_rows


class TestSql:
    def test_initial_sql_has_no_where(self, explorer):
        explorer.open_columns(("x0", "x1"))
        sql = explorer.sql()
        assert sql.startswith('SELECT "x0", "x1" FROM "mixed_blobs"')
        assert "WHERE" not in sql

    def test_region_sql_includes_its_predicate(self, explorer):
        data_map = explorer.open_columns(("x0", "x1"))
        leaf = data_map.leaves()[0]
        sql = explorer.sql(leaf.region_id)
        assert "WHERE" in sql

    def test_sql_query_matches_region_rows(self, explorer):
        # The expressivity claim: the rendered predicate selects exactly
        # the region's tuples.
        data_map = explorer.open_columns(("x0", "x1"))
        for leaf in data_map.leaves():
            selected = explorer.table.select(leaf.predicate)
            assert selected.n_rows == leaf.n_rows


class TestLocalThemes:
    def test_local_themes_of_a_zoomed_selection(self, explorer):
        data_map = explorer.open_columns(("x0", "x1"))
        target = max(data_map.leaves(), key=lambda r: r.n_rows)
        explorer.zoom(target.region_id)
        local = explorer.local_themes()
        assert len(local) >= 1
        assert all(theme.size >= 1 for theme in local)

    def test_local_themes_reuse_cached_codes(self, explorer):
        explorer.open_columns(("x0", "x1"))
        explorer.themes()  # primes the code cache for the base table
        metrics = reset_metrics()
        explorer.local_themes()
        assert metrics.counter("blaeu_graph_builds_total") == 1
        assert metrics.counter("blaeu_graph_code_cache_misses_total") == 0
        assert metrics.counter("blaeu_graph_code_cache_hits_total") > 0

    def test_local_themes_deterministic_and_session_neutral(self, explorer):
        """Deep-diving a selection is read-only: its randomness derives
        from the selection alone, so repeating it gives the same
        themes."""
        data_map = explorer.open_columns(("x0", "x1"))
        target = max(data_map.leaves(), key=lambda r: r.n_rows)
        explorer.zoom(target.region_id)
        first = explorer.local_themes()
        second = explorer.local_themes()
        assert [t.columns for t in first] == [t.columns for t in second]
        assert np.array_equal(first.graph.weights, second.graph.weights)


class TestRefine:
    APPROX = BlaeuConfig(
        map_k_values=(2, 3),
        map_sample_size=150,
        min_zoom_rows=10,
        count_mode="approximate",
    )

    @pytest.fixture
    def approx_explorer(self):
        planted = mixed_blobs(n_rows=600, k=3, seed=31)
        return Explorer(planted.table, config=self.APPROX)

    def test_open_returns_approximate_then_refines(self, approx_explorer):
        data_map = approx_explorer.open_columns(("x0", "x1"))
        assert data_map.counts_status == "approximate"
        assert approx_explorer.needs_refine
        exact = approx_explorer.refine()
        assert exact.counts_status == "exact"
        assert approx_explorer.state.map is exact
        assert not approx_explorer.needs_refine
        assert exact.root.n_rows == 600

    def test_refined_map_matches_blocking_exact_build(self):
        """Session-mode refine (no cache) equals a blocking exact build."""
        from repro.core.pipeline import MapBuilder
        from repro.viz.export import export_map_json

        planted = mixed_blobs(n_rows=600, k=3, seed=31)
        approx = Explorer(planted.table, config=self.APPROX)
        approx.open_columns(("x0", "x1"))
        refined = approx.refine()

        direct = MapBuilder().build(
            planted.table,
            ("x0", "x1"),
            config=self.APPROX,
            count_mode="exact",
        )
        assert export_map_json(refined) == export_map_json(direct)

    def test_refine_is_a_noop_on_exact_maps(self, explorer):
        data_map = explorer.open_columns(("x0", "x1"))
        assert data_map.counts_status == "exact"
        assert not explorer.needs_refine
        assert explorer.refine() is data_map

    def test_rollback_keeps_approximate_state_refineable(
        self, approx_explorer
    ):
        first = approx_explorer.open_columns(("x0", "x1"))
        target = max(first.leaves(), key=lambda r: r.n_rows)
        approx_explorer.zoom(target.region_id)
        approx_explorer.rollback()
        assert approx_explorer.needs_refine
        exact = approx_explorer.refine()
        assert exact.counts_status == "exact"
        assert approx_explorer.state.map is exact


class TestThemesOnExplorer:
    def test_themes_cached(self, explorer):
        first = explorer.themes()
        assert explorer.themes() is first

    def test_open_theme_by_name(self, explorer):
        name = explorer.themes().names()[0]
        explorer.open_theme(name)
        assert explorer.depth == 1
