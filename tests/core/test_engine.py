"""Unit tests for the Blaeu engine facade."""

import pytest

from repro.core.config import BlaeuConfig
from repro.core.engine import Blaeu
from synthetic import mixed_blobs

CONFIG = BlaeuConfig(map_k_values=(2, 3))


@pytest.fixture
def engine():
    blaeu = Blaeu(CONFIG)
    blaeu.register(mixed_blobs(n_rows=300, k=2, seed=51).table)
    return blaeu


class TestEngine:
    def test_register_and_tables(self, engine):
        assert engine.tables() == ("mixed_blobs",)

    def test_load_csv(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text(
            "a,b\n" + "\n".join(f"{i},{i % 3}" for i in range(40)) + "\n",
            encoding="utf-8",
        )
        engine = Blaeu()
        table = engine.load_csv(path)
        assert table.name == "tiny"
        assert "tiny" in engine.tables()

    def test_themes_cached_per_table(self, engine):
        first = engine.themes("mixed_blobs")
        assert engine.themes("mixed_blobs") is first

    def test_reregister_invalidates_theme_cache(self, engine):
        first = engine.themes("mixed_blobs")
        engine.register(mixed_blobs(n_rows=300, k=2, seed=52).table)
        assert engine.themes("mixed_blobs") is not first

    def test_one_shot_map(self, engine):
        data_map = engine.map("mixed_blobs", ("x0", "x1"))
        assert data_map.n_rows == 300

    def test_one_shot_map_forced_k(self, engine):
        data_map = engine.map("mixed_blobs", ("x0", "x1"), k=3)
        assert data_map.k == 3

    def test_explore_creates_independent_sessions(self, engine):
        a = engine.explore("mixed_blobs")
        b = engine.explore("mixed_blobs")
        a.open_columns(("x0",))
        assert a.depth == 1
        assert b.depth == 0

    def test_explore_shares_cached_themes(self, engine):
        themes = engine.themes("mixed_blobs")
        explorer = engine.explore("mixed_blobs")
        assert explorer.themes() is themes

    def test_unknown_table_rejected(self, engine):
        with pytest.raises(KeyError):
            engine.explore("nope")
        with pytest.raises(KeyError):
            engine.themes("nope")

    def test_deterministic_given_seed(self):
        table = mixed_blobs(n_rows=250, k=2, seed=60).table
        maps = []
        for _ in range(2):
            engine = Blaeu(BlaeuConfig(map_k_values=(2, 3), seed=7))
            engine.register(table)
            maps.append(engine.map("mixed_blobs", ("x0", "x1")))
        assert maps[0].to_dict() == maps[1].to_dict()
