"""Integration tests: the full stack on the paper's demo scenarios."""

import json

import pytest

from repro.core.config import BlaeuConfig
from repro.core.engine import Blaeu
from repro.datasets.hollywood import hollywood
from repro.datasets.lofar import lofar
from repro.datasets.oecd import LABOR_THEME, UNEMPLOYMENT_THEME
from repro.server.session import SessionManager
from repro.viz.export import export_map_json
from repro.viz.render import render_theme_view
from synthetic import oecd_small


@pytest.fixture(scope="module")
def engine():
    blaeu = Blaeu(BlaeuConfig(map_k_values=(2, 3, 4)))
    blaeu.register(hollywood())
    blaeu.register(oecd_small())
    blaeu.register(lofar(n_rows=5000))
    return blaeu


class TestHollywoodScenario:
    """Paper §4.2 scenario 1: discover concepts, build simple queries."""

    def test_full_walkthrough(self, engine):
        explorer = engine.explore("hollywood")
        themes = explorer.themes()
        assert len(themes) >= 2
        data_map = explorer.open_theme(0)
        assert data_map.n_rows == 900
        # Zoom into the biggest region, highlight, read the SQL.
        biggest = max(data_map.leaves(), key=lambda r: r.n_rows)
        zoomed = explorer.zoom(biggest.region_id)
        assert zoomed.n_rows == biggest.n_rows
        highlight = explorer.highlight(
            zoomed.leaves()[0].region_id, columns=("Title", "Genre")
        )
        assert highlight.preview
        sql = explorer.sql(zoomed.leaves()[0].region_id)
        assert sql.startswith("SELECT") and "WHERE" in sql
        explorer.rollback()
        assert explorer.state.map is data_map

    def test_profitability_question_is_answerable(self, engine):
        # "Which films are the most profitable?" — a map over the money
        # columns should separate high- and low-profit movies.
        data_map = engine.map(
            "hollywood", ("Budget", "WorldwideGross", "Profitability")
        )
        exemplar_profits = [
            leaf.exemplar["Profitability"] for leaf in data_map.leaves()
        ]
        assert max(exemplar_profits) > 2 * min(exemplar_profits)


class TestCountriesScenario:
    """Paper §4.2 scenario 2: the Figure 1 walkthrough."""

    def test_labor_theme_recovered(self, engine):
        themes = engine.themes("countries_small")
        labor = themes.theme_of(LABOR_THEME[0])
        # Long hours and leisure always travel together; income may join
        # the same theme or the country hub depending on sampling.
        assert LABOR_THEME[2] in labor.columns
        unemployment = themes.theme_of(UNEMPLOYMENT_THEME[0])
        assert set(UNEMPLOYMENT_THEME) <= set(unemployment.columns)

    def test_theme_view_renders(self, engine):
        themes = engine.themes("countries_small")
        text = render_theme_view(themes)
        assert "THEMES" in text
        assert "Unemployment" in text


class TestLofarScenario:
    """Paper §4.2 scenario 3: a large table stays interactive."""

    def test_sampled_map_counts_exact(self, engine):
        config = engine.config
        data_map = engine.map(
            "lofar", ("Flux150MHz", "SpectralIndex", "AngularSize")
        )
        assert data_map.sample_size == config.map_sample_size
        assert data_map.n_rows == 5000
        assert sum(leaf.n_rows for leaf in data_map.leaves()) == 5000

    def test_zoom_keeps_working_at_scale(self, engine):
        explorer = engine.explore("lofar")
        data_map = explorer.open_columns(
            ("Flux150MHz", "SpectralIndex", "AngularSize", "Variability")
        )
        biggest = max(data_map.leaves(), key=lambda r: r.n_rows)
        zoomed = explorer.zoom(biggest.region_id)
        assert zoomed.n_rows == biggest.n_rows


class TestProtocolRoundTrip:
    """The Figure 4 stack: JSON in, JSON out, end to end."""

    def test_session_protocol_flow(self, engine):
        manager = SessionManager(engine)

        def send(**body):
            return json.loads(manager.handle_json(json.dumps(body)))

        tables = send(command="tables")
        assert "hollywood" in tables["tables"]
        opened = send(
            command="open", session="it", table="hollywood", theme=0
        )
        assert opened["ok"]
        assert opened["map"]["n_rows"] == 900
        children = opened["map"]["root"]["children"]
        target = max(children, key=lambda c: c["value"])
        zoomed = send(command="zoom", session="it", region=target["id"])
        assert zoomed["ok"]
        sql = send(command="sql", session="it")
        assert "WHERE" in sql["sql"]
        send(command="rollback", session="it")
        history = send(command="history", session="it")
        assert len(history["history"]) == 1
        send(command="close", session="it")
        assert manager.session_ids() == ()

    def test_map_payload_consumable_as_d3_hierarchy(self, engine):
        data_map = engine.map("hollywood", ("Budget", "WorldwideGross"))
        payload = json.loads(export_map_json(data_map))

        def walk(node, depth=0):
            assert node["value"] >= 0
            for child in node.get("children", []):
                walk(child, depth + 1)

        walk(payload["root"])


class TestDeterminism:
    def test_same_seed_same_exploration(self):
        results = []
        for _ in range(2):
            engine = Blaeu(BlaeuConfig(map_k_values=(2, 3), seed=11))
            engine.register(hollywood())
            explorer = engine.explore("hollywood")
            data_map = explorer.open_theme(0)
            biggest = max(data_map.leaves(), key=lambda r: r.n_rows)
            zoomed = explorer.zoom(biggest.region_id)
            results.append(json.loads(export_map_json(zoomed)))
        assert results[0] == results[1]
