"""Unit tests for the action recommendation engine."""

import pytest

from repro.core.config import BlaeuConfig
from repro.core.engine import Blaeu
from repro.guide import recommend
from repro.guide.recommend import (
    Suggestion,
    initial_suggestions,
    score_state,
    suggest_actions,
    suggestion_request,
)
from repro.table.predicates import And, Everything
from synthetic import mixed_blobs


@pytest.fixture
def engine():
    engine = Blaeu(BlaeuConfig(map_k_values=(2, 3), seed=5))
    engine.register(mixed_blobs(n_rows=300, k=2, seed=61).table)
    return engine


def ranked(suggestions):
    return [(s.action, s.target, round(s.score, 9)) for s in suggestions]


class TestInitialSuggestions:
    def test_suggests_themes_before_first_map(self, engine):
        explorer = engine.explore("mixed_blobs")
        suggestions = explorer.suggest()
        assert suggestions
        assert all(s.action == "open_theme" for s in suggestions)
        theme_names = {theme.name for theme in explorer.themes()}
        assert all(s.target in theme_names for s in suggestions)

    def test_sorted_by_score_then_target(self, engine):
        suggestions = initial_suggestions(engine.themes("mixed_blobs"))
        keys = [(-s.score, s.action, s.target) for s in suggestions]
        assert keys == sorted(keys)

    def test_limit_respected(self, engine):
        themes = engine.themes("mixed_blobs")
        assert len(initial_suggestions(themes, limit=1)) == 1
        assert len(initial_suggestions(themes, limit=0)) == 0


class TestStateSuggestions:
    def test_covers_zoom_project_and_recluster(self, engine):
        explorer = engine.explore("mixed_blobs")
        explorer.open_theme(0)
        actions = {s.action for s in explorer.suggest(limit=10)}
        assert "zoom" in actions
        assert "recluster" in actions

    def test_scores_within_unit_interval(self, engine):
        explorer = engine.explore("mixed_blobs")
        explorer.open_theme(0)
        for suggestion in explorer.suggest(limit=10):
            assert 0.0 <= suggestion.score <= 1.0

    def test_never_projects_onto_active_theme(self, engine):
        explorer = engine.explore("mixed_blobs")
        explorer.open_theme(0)
        active = set(explorer.state.columns)
        for suggestion in explorer.suggest(limit=20):
            if suggestion.action == "project":
                theme = explorer.themes().theme(suggestion.target)
                assert set(theme.columns) != active

    def test_never_reclusters_to_current_k(self, engine):
        explorer = engine.explore("mixed_blobs")
        explorer.open_theme(0)
        current_k = explorer.state.map.k
        for suggestion in explorer.suggest(limit=20):
            if suggestion.action == "recluster":
                assert int(suggestion.target) != current_k

    def test_insight_pass_skipped_above_row_cutoff(self, engine, monkeypatch):
        explorer = engine.explore("mixed_blobs")
        explorer.open_theme(0)
        # Force the skip: the divergence term drops to zero but the
        # ranking still works off silhouette + size.
        monkeypatch.setattr(recommend, "MAX_INSIGHT_ROWS", 1)
        suggestions = suggest_actions(explorer, limit=10)
        zooms = [s for s in suggestions if s.action == "zoom"]
        assert zooms
        assert all("divergence 0.00" in s.reason for s in zooms)


class TestDeterminism:
    def test_identical_across_fresh_explorers(self, engine):
        def once():
            explorer = engine.explore("mixed_blobs")
            explorer.open_theme(0)
            return ranked(explorer.suggest(limit=10))

        assert once() == once()

    def test_identical_across_cache_warmth(self):
        # A cold engine and one that has already built (and cached)
        # every map must rank identically: scoring never reads caches.
        def once():
            engine = Blaeu(BlaeuConfig(map_k_values=(2, 3), seed=5))
            engine.register(mixed_blobs(n_rows=300, k=2, seed=61).table)
            explorer = engine.explore("mixed_blobs")
            explorer.open_theme(0)
            first = ranked(explorer.suggest(limit=10))
            explorer.zoom(explorer.state.map.leaves()[0].region_id)
            explorer.rollback()  # back to the same state, caches warm
            second = ranked(explorer.suggest(limit=10))
            return first, second

        first_cold, first_warm = once()
        second_cold, second_warm = once()
        assert first_cold == first_warm
        assert first_cold == second_cold == second_warm


class TestSuggestionRequest:
    def test_open_theme_request(self, engine):
        themes = engine.themes("mixed_blobs")
        suggestion = initial_suggestions(themes, limit=1)[0]
        selection, columns, k = suggestion_request(
            suggestion, themes, None, (), None
        )
        assert selection.to_sql() == Everything().to_sql()
        assert columns == themes.theme(suggestion.target).columns
        assert k is None

    def test_zoom_request_composes_selection(self, engine):
        explorer = engine.explore("mixed_blobs")
        explorer.open_theme(0)
        state = explorer.state
        region = state.map.leaves()[0]
        suggestion = Suggestion("zoom", region.region_id, 1.0, "")
        selection, columns, k = suggestion_request(
            suggestion, explorer.themes(), state.map, state.columns,
            state.selection,
        )
        expected = And.of(state.selection, region.predicate)
        assert selection.to_sql() == expected.to_sql()
        assert columns == state.columns
        assert k is None

    def test_recluster_request_forces_k(self, engine):
        explorer = engine.explore("mixed_blobs")
        explorer.open_theme(0)
        state = explorer.state
        suggestion = Suggestion("recluster", "3", 1.0, "")
        selection, columns, k = suggestion_request(
            suggestion, explorer.themes(), state.map, state.columns,
            state.selection,
        )
        assert selection is state.selection
        assert columns == state.columns
        assert k == 3

    def test_stateful_action_without_state_rejected(self, engine):
        themes = engine.themes("mixed_blobs")
        with pytest.raises(ValueError, match="active state"):
            suggestion_request(
                Suggestion("zoom", "r0", 1.0, ""), themes, None, (), None
            )

    def test_unknown_action_rejected(self, engine):
        explorer = engine.explore("mixed_blobs")
        explorer.open_theme(0)
        state = explorer.state
        with pytest.raises(ValueError, match="unknown suggestion action"):
            suggestion_request(
                Suggestion("teleport", "x", 1.0, ""),
                explorer.themes(), state.map, state.columns, state.selection,
            )

    def test_zoom_request_matches_explorer_cache_key(self, engine):
        # The whole point of suggestion_request: a speculative build
        # must land under the key the real navigation will look up.
        from repro.core.pipeline import map_cache_key

        explorer = engine.explore("mixed_blobs")
        explorer.open_theme(0)
        state = explorer.state
        region = state.map.leaves()[0]
        suggestion = Suggestion("zoom", region.region_id, 1.0, "")
        selection, columns, _ = suggestion_request(
            suggestion, explorer.themes(), state.map, state.columns,
            state.selection,
        )
        speculative_key = map_cache_key(
            explorer.table, selection.to_sql(), columns, explorer.config
        )
        explorer.zoom(region.region_id)
        foreground_key = map_cache_key(
            explorer.table,
            explorer.state.selection.to_sql(),
            explorer.state.columns,
            explorer.config,
        )
        assert speculative_key == foreground_key


class TestScoreState:
    def test_matches_explorer_suggest(self, engine):
        explorer = engine.explore("mixed_blobs")
        explorer.open_theme(0)
        state = explorer.state
        direct = score_state(
            explorer.table,
            explorer.config,
            explorer.themes(),
            state.map,
            state.columns,
            state.selection,
            limit=10,
        )
        assert ranked(direct) == ranked(explorer.suggest(limit=10))

    def test_describe_is_one_line(self, engine):
        explorer = engine.explore("mixed_blobs")
        for suggestion in explorer.suggest(limit=3):
            line = suggestion.describe()
            assert "\n" not in line
            assert suggestion.target in line
