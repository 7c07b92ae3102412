"""Tests for cache-aware map building across engine sessions."""

import numpy as np
import pytest

from repro.core.config import BlaeuConfig
from repro.core.engine import Blaeu
from repro.core.pipeline import MapPipeline, build_map, map_cache_key
from repro.datasets.oecd import oecd
from repro.obs.metrics import reset_metrics
from repro.service.cache import LRUCache, TieredCache
from repro.viz.export import export_map_json
from scrape import scraped
from synthetic import mixed_blobs

CONFIG = BlaeuConfig(map_k_values=(2, 3), seed=5)


def lookups(metrics) -> tuple[float, float]:
    """The map cache's ``(hits, misses)``, as ``/metrics`` renders them."""
    return (
        scraped(metrics, "blaeu_cache_hits_total", tier="l1"),
        scraped(metrics, "blaeu_cache_misses_total", tier="l1"),
    )


@pytest.fixture
def engine():
    blaeu = Blaeu(CONFIG, map_cache=TieredCache(LRUCache(max_size=16)))
    blaeu.register(mixed_blobs(n_rows=300, k=2, seed=61).table)
    return blaeu


class TestConfigDigest:
    def test_equal_configs_share_a_digest(self):
        assert BlaeuConfig().digest() == BlaeuConfig().digest()

    def test_any_result_affecting_knob_changes_the_digest(self):
        base = BlaeuConfig()
        assert base.digest() != BlaeuConfig(seed=1).digest()
        assert base.digest() != BlaeuConfig(map_sample_size=999).digest()
        assert base.digest() != BlaeuConfig(map_k_values=(2, 3)).digest()

    def test_result_neutral_knobs_share_the_digest(self):
        """Two-phase counting never changes the final exact map, so the
        knob must share cache entries (and the key-derived RNG chain)
        with the default."""
        base = BlaeuConfig()
        assert base.digest() == BlaeuConfig(count_mode="approximate").digest()

    def test_the_default_digest_is_pinned(self):
        """Every golden map digest hangs off this value (it seeds the
        key-derived RNG chain), so it may only move on purpose."""
        assert BlaeuConfig().digest() == "16a753f91cf0ec48"

    def test_the_retired_widths_stay_in_the_payload(self):
        """CLARA's draws, store scans and the NMI kernel no longer fan
        out, and every distance is float64, so those knobs are gone —
        but the digest still hashes them at the values it hashed them
        with: dropping the entries would move the default digest, every
        key-derived seed, and so every map."""
        with pytest.raises(TypeError):
            BlaeuConfig(clara_jobs=2)  # type: ignore[call-arg]
        with pytest.raises(TypeError):
            BlaeuConfig(scan_jobs=2)  # type: ignore[call-arg]
        with pytest.raises(TypeError):
            BlaeuConfig(graph_jobs=2)  # type: ignore[call-arg]
        with pytest.raises(TypeError):
            BlaeuConfig(distance_dtype="float32")  # type: ignore[call-arg]
        assert BlaeuConfig._RETIRED_KNOBS == {
            "clara_jobs": None,
            "scan_jobs": None,
            "distance_dtype": "float64",
            "graph_jobs": None,
        }


class TestMapCacheKey:
    def test_key_combines_content_config_and_action_path(self):
        table = mixed_blobs(n_rows=100, k=2, seed=3).table
        key = map_cache_key(table, "TRUE", ("x0", "x1"), CONFIG)
        assert key == (
            table.fingerprint(),
            CONFIG.digest(),
            "TRUE",
            ("x0", "x1"),
            None,
        )

    def test_different_selections_get_different_keys(self):
        table = mixed_blobs(n_rows=100, k=2, seed=3).table
        a = map_cache_key(table, "TRUE", ("x0",), CONFIG)
        b = map_cache_key(table, '"x0" < 1', ("x0",), CONFIG)
        assert a != b


class TestSharedCacheAcrossSessions:
    def test_two_explorers_share_one_clustering_run(self, engine):
        metrics = reset_metrics()
        first = engine.explore("mixed_blobs")
        first.open_columns(("x0", "x1"))
        # A cold open misses the finished map plus the five pipeline
        # stage artifacts (sample, space, distances, cluster, describe).
        assert lookups(metrics) == (0, 6)

        second = engine.explore("mixed_blobs")
        second_map = second.open_columns(("x0", "x1"))
        # The warm open is answered by the finished-map entry alone: one
        # lookup, no stage artifact is even consulted.
        assert lookups(metrics) == (1, 6)
        # The exact same map object is served to both sessions.
        assert second_map is first.state.map

    def test_zoom_paths_are_cached_by_action_path(self, engine):
        first = engine.explore("mixed_blobs")
        data_map = first.open_columns(("x0", "x1"))
        target = max(data_map.leaves(), key=lambda r: r.n_rows)
        first.zoom(target.region_id)
        metrics = reset_metrics()

        second = engine.explore("mixed_blobs")
        second.open_columns(("x0", "x1"))
        second.zoom(target.region_id)
        assert lookups(metrics) == (2, 0)  # the open and the zoom

    def test_different_columns_do_not_collide(self, engine):
        metrics = reset_metrics()
        explorer = engine.explore("mixed_blobs")
        first = explorer.open_columns(("x0", "x1"))
        other = engine.explore("mixed_blobs")
        second = other.open_columns(("x1", "x2"))
        assert second is not first
        # Distinct column sets never share a finished map — but they
        # *do* share the Sample artifact of the same selection (the one
        # cache hit): a project re-enters the pipeline at Preprocess.
        assert lookups(metrics) == (1, 11)

    def test_maps_do_not_depend_on_cache_warmth(self):
        """The same action path yields the same map, hit or miss.

        Engine 1's second session opens from a *warm* cache before
        zooming (a miss); engine 2's single session pays for both
        builds.  The zoom maps must still be identical — the build RNG
        is derived from the cache key, not from session history.
        """
        def zoom_map(engine, warm_first):
            if warm_first:
                warmup = engine.explore("mixed_blobs")
                warmup.open_columns(("x0", "x1"))
            explorer = engine.explore("mixed_blobs")
            data_map = explorer.open_columns(("x0", "x1"))
            target = max(data_map.leaves(), key=lambda r: r.n_rows)
            return explorer.zoom(target.region_id)

        engines = []
        for _ in range(2):
            blaeu = Blaeu(CONFIG, map_cache=LRUCache(max_size=16))
            blaeu.register(mixed_blobs(n_rows=300, k=2, seed=61).table)
            engines.append(blaeu)
        warm = zoom_map(engines[0], warm_first=True)
        cold = zoom_map(engines[1], warm_first=False)
        assert export_map_json(warm) == export_map_json(cold)

    def test_one_shot_map_uses_the_cache(self, engine):
        metrics = reset_metrics()
        engine.map("mixed_blobs", ("x0", "x1"), k=2)
        engine.map("mixed_blobs", ("x0", "x1"), k=2)
        assert lookups(metrics) == (1, 6)

    def test_cache_off_by_default(self):
        blaeu = Blaeu(CONFIG)
        blaeu.register(mixed_blobs(n_rows=120, k=2, seed=9).table)
        assert blaeu.map_cache is None
        explorer = blaeu.explore("mixed_blobs")
        data_map = explorer.open_columns(("x0", "x1"))
        assert data_map.n_rows == 120

    def test_set_map_cache_installs_and_removes(self):
        blaeu = Blaeu(CONFIG)
        cache = LRUCache(max_size=4)
        blaeu.set_map_cache(cache)
        assert blaeu.map_cache is cache
        blaeu.set_map_cache(None)
        assert blaeu.map_cache is None


# ----------------------------------------------------------------------
# One randomness regime: a request names its result on every entry point
# ----------------------------------------------------------------------


def _largest_leaf(data_map):
    return max(data_map.leaves(), key=lambda region: region.n_rows).region_id


def _open_and_zoom(explorer):
    """*Open theme 0 → zoom the largest leaf*: both maps, as export JSON."""
    opened = explorer.open_theme(0)
    zoomed = explorer.zoom(_largest_leaf(opened))
    return export_map_json(opened), export_map_json(zoomed)


#: Budgets below the small table's size, so every stage has to draw.
SMALL_CONFIG = BlaeuConfig(
    map_k_values=(2, 3),
    map_sample_size=250,
    clara_threshold=100,
    dependency_sample_size=200,
    seed=5,
)


@pytest.fixture(
    scope="module",
    params=[
        pytest.param(
            (lambda: mixed_blobs(n_rows=900, k=3, seed=61).table, SMALL_CONFIG),
            id="mixed_blobs",
        ),
        pytest.param((oecd, BlaeuConfig()), id="oecd"),
    ],
)
def regimes(request):
    """One table behind a cache-less engine (the shell's) and a cached
    one (the server's)."""
    make_table, config = request.param
    table = make_table()
    shell = Blaeu(config)
    served = Blaeu(config, map_cache=LRUCache(max_size=256))
    shell.register(table)
    served.register(table)
    return table, config, shell, served


class TestOneRandomnessRegime:
    def test_an_action_path_names_its_map(self, regimes):
        table, config, shell, served = regimes
        name = table.name
        reference = _open_and_zoom(shell.explore(name))
        assert _open_and_zoom(served.explore(name)) == reference  # cold
        assert _open_and_zoom(served.explore(name)) == reference  # warm

        detour = shell.explore(name)
        detour.open_columns(table.column_names[:2])
        assert _open_and_zoom(detour) == reference

        back = shell.explore(name)
        leaf = _largest_leaf(back.open_theme(0))
        back.zoom(leaf)
        back.rollback()
        assert export_map_json(back.zoom(leaf)) == reference[1]

    def test_every_entry_point_builds_the_same_map(self, regimes):
        table, config, shell, served = regimes
        explorer = shell.explore(table.name)
        opened, zoomed = _open_and_zoom(explorer)
        state = explorer.state
        assert opened == export_map_json(shell.map(table.name, state.columns))
        assert opened == export_map_json(served.map(table.name, state.columns))
        assert opened == export_map_json(build_map(table, state.columns, config))
        assert opened == export_map_json(
            MapPipeline(table, state.columns, config).build()
        )
        assert zoomed == export_map_json(
            MapPipeline(
                table, state.columns, config, selection=state.selection
            ).build()
        )

    def test_themes_do_not_depend_on_a_cache(self, regimes):
        table, _, shell, served = regimes
        of_shell, of_served = shell.themes(table.name), served.themes(table.name)
        assert [t.columns for t in of_shell] == [t.columns for t in of_served]
        assert np.array_equal(of_shell.graph.weights, of_served.graph.weights)

    def test_local_themes_are_a_pure_read(self, regimes):
        table, _, shell, served = regimes
        explorer = shell.explore(table.name)
        _open_and_zoom(explorer)
        first, again = explorer.local_themes(), explorer.local_themes()
        explorer.project_columns(table.column_names[:2])
        explorer.rollback()
        after = explorer.local_themes()
        cached = served.explore(table.name)
        _open_and_zoom(cached)
        for other in (again, after, cached.local_themes()):
            assert [t.columns for t in other] == [t.columns for t in first]
            assert np.array_equal(other.graph.weights, first.graph.weights)
