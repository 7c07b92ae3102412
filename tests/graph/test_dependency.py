"""Unit tests for the column dependency graph."""

import numpy as np
import pytest

from repro.core.themes import extract_themes
from repro.graph import dependency
from repro.graph.dependency import GraphBuilder
from repro.obs.metrics import reset_metrics
from repro.service.cache import LRUCache
from synthetic import planted_themes


#: The key's kind and the fingerprint of ``planted_themes()``.
_PINNED_HEAD = (
    "graph",
    "0d3574eb1836f3eb3118114573ab6ed0dda2ec1d86db78600869c50ebed6ac3e",
)


def _recorded_keys(monkeypatch) -> list[tuple]:
    """Every graph key computed from here on, in order."""
    keys = []
    original = dependency._graph_cache_key

    def recording(*args):
        keys.append(original(*args))
        return keys[-1]

    monkeypatch.setattr(dependency, "_graph_cache_key", recording)
    return keys


@pytest.fixture
def themed():
    return planted_themes(
        n_rows=400,
        group_sizes={"eco": 3, "health": 3},
        noise=0.3,
        seed=5,
    )


class TestBuildGraph:
    def test_shape_and_diagonal(self, themed):
        graph = GraphBuilder().build(themed.table)
        n = themed.table.n_columns
        assert graph.weights.shape == (n, n)
        assert np.allclose(np.diag(graph.weights), 1.0)
        assert np.allclose(graph.weights, graph.weights.T)

    def test_within_group_beats_across_group(self, themed):
        graph = GraphBuilder().build(themed.table)
        within = graph.weight("eco_0", "eco_1")
        across = graph.weight("eco_0", "health_0")
        assert within > 2 * across

    def test_dissimilarity_properties(self, themed):
        graph = GraphBuilder().build(themed.table)
        dissimilarity = graph.dissimilarity()
        assert np.allclose(np.diag(dissimilarity), 0.0)
        assert dissimilarity.min() >= 0.0
        assert dissimilarity.max() <= 1.0

    def test_edges_sorted_strongest_first(self, themed):
        graph = GraphBuilder().build(themed.table)
        edges = graph.edges()
        weights = [w for _, _, w in edges]
        assert weights == sorted(weights, reverse=True)

    def test_column_subset(self, themed):
        graph = GraphBuilder().build(
            themed.table, columns=("eco_0", "eco_1")
        )
        assert graph.columns == ("eco_0", "eco_1")

    def test_sampled_estimation_close_to_full(self, themed):
        full = GraphBuilder().build(themed.table)
        sampled = GraphBuilder().build(themed.table, sample=200)
        # Sampled weights track the full-data weights.
        delta = np.abs(full.weights - sampled.weights).max()
        assert delta < 0.25

    def test_the_weights_are_nmi(self, themed):
        assert GraphBuilder().build(themed.table).measure == "nmi"


class TestDeterminism:
    def test_sampled_builds_agree_without_rng(self, themed):
        """A sampled build draws from its content key: repeats agree."""
        first = GraphBuilder().build(themed.table, sample=150)
        second = GraphBuilder().build(themed.table, sample=150)
        assert np.array_equal(first.weights, second.weights)

    def test_seed_changes_the_sample(self, themed):
        first = GraphBuilder().build(themed.table, sample=50, seed=1)
        second = GraphBuilder().build(themed.table, sample=50, seed=2)
        assert not np.array_equal(first.weights, second.weights)

    def test_the_key_of_a_default_theme_build_is_pinned(self, monkeypatch):
        """The key seeds the build's sample, so it may only move on
        purpose: ``"nmi"`` and ``None`` hold the places the dependency
        measure and the bin-count override once did."""
        keys = _recorded_keys(monkeypatch)
        extract_themes(planted_themes().table)
        assert keys == [
            (*_PINNED_HEAD, "670318b9dfb6fe21", "nmi", None, 4096, 1000, 42, None)
        ]

    @pytest.mark.parametrize(
        "build, tail",
        [
            ({}, ("670318b9dfb6fe21", "nmi", None, 4096, None, 42, None)),
            (
                {"row_indices": np.arange(100, 300)},
                ("670318b9dfb6fe21", "nmi", None, 4096, None, 42, "43645d4e07713dc8"),
            ),
            (
                {
                    "columns": ("economy_0", "health_1"),
                    "sample": 200,
                    "seed": 7,
                    "bin_sample_size": 64,
                },
                ("3a3b9acace8cb6ba", "nmi", None, 64, 200, 7, None),
            ),
        ],
        ids=["whole_table", "rows", "sampled_subset"],
    )
    def test_the_key_of_each_build_path_is_pinned(self, monkeypatch, build, tail):
        keys = _recorded_keys(monkeypatch)
        GraphBuilder().build(planted_themes().table, **build)
        assert keys == [(*_PINNED_HEAD, *tail)]

    def test_row_indices_arange_equals_full(self, themed):
        full = GraphBuilder().build(themed.table)
        explicit = GraphBuilder().build(
            themed.table,
            row_indices=np.arange(themed.table.n_rows, dtype=np.intp),
        )
        assert np.array_equal(full.weights, explicit.weights)


class TestGraphBuilder:
    def test_result_cache_memoizes(self, themed):
        metrics = reset_metrics()
        cache = LRUCache(max_size=8)
        builder = GraphBuilder(result_cache=cache)
        first = builder.build(themed.table, sample=100)
        second = builder.build(themed.table, sample=100)
        assert second is first
        assert metrics.counter("blaeu_graph_builds_total") == 1
        assert metrics.counter("blaeu_graph_cache_hits_total") == 1
        assert metrics.counter("blaeu_graph_cache_misses_total") == 1

    def test_cache_warmth_does_not_change_results(self, themed):
        cold = GraphBuilder(result_cache=LRUCache(max_size=8))
        warm = GraphBuilder(result_cache=LRUCache(max_size=8))
        warm.build(themed.table, sample=100)  # prime a different key
        a = cold.build(themed.table, sample=120)
        b = warm.build(themed.table, sample=120)
        assert np.array_equal(a.weights, b.weights)

    def test_code_cache_reused_across_selections(self, themed):
        builder = GraphBuilder()
        n = themed.table.n_rows
        builder.build(themed.table, row_indices=np.arange(0, n, 2))
        metrics = reset_metrics()
        builder.build(themed.table, row_indices=np.arange(1, n, 2))
        assert metrics.counter("blaeu_graph_code_cache_misses_total") == 0
        assert (
            metrics.counter("blaeu_graph_code_cache_hits_total")
            >= themed.table.n_columns
        )

    def test_metrics_sink_receives_counters(self, themed):
        metrics = reset_metrics()
        builder = GraphBuilder(result_cache=LRUCache(max_size=4))
        builder.build(themed.table, sample=100)
        builder.build(themed.table, sample=100)
        assert metrics.counter("blaeu_graph_builds_total") == 1
        assert metrics.counter("blaeu_graph_cache_hits_total") == 1
        assert metrics.counter("blaeu_graph_cache_misses_total") == 1
        assert metrics.counter("blaeu_graph_code_cache_misses_total") > 0
        assert "blaeu_graph_builds_total 1" in metrics.render()

    def test_overlapping_builds_count_each_code_lookup_once(self):
        """Concurrent builds on one warm builder: the registry's code-cache
        hits plus misses equal the lookups the shared cache served."""
        import threading

        from repro.graph.codes import gather_codes
        from synthetic import mixed_blobs

        builder = GraphBuilder()
        cache = builder.code_cache
        tables = [
            mixed_blobs(n_rows=2_000, k=3, seed=seed, name=f"t{seed}").table
            for seed in range(4)
        ]
        for table in tables:  # warm: every column's cuts are cached
            gather_codes(table, table.column_names, cache=cache, rows=np.arange(9))
        # Count the lookups the shared cache serves, beside the registry.
        lookups = 0
        lookup_lock = threading.Lock()
        served = cache.get

        def counting_get(key):
            nonlocal lookups
            with lookup_lock:
                lookups += 1
            return served(key)

        cache.get = counting_get
        metrics = reset_metrics()
        start = threading.Barrier(4)
        errors: list[BaseException] = []

        def navigate(offset: int) -> None:
            try:
                start.wait(timeout=30)
                for step in range(3):
                    rows = np.arange(offset + step, 2_000, 5)
                    builder.build(tables[(offset + step) % 4], row_indices=rows)
            except BaseException as error:  # pragma: no cover - surfaced below
                errors.append(error)

        threads = [
            threading.Thread(target=navigate, args=(offset,))
            for offset in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        hits = metrics.counter("blaeu_graph_code_cache_hits_total")
        misses = metrics.counter("blaeu_graph_code_cache_misses_total")
        assert lookups == 4 * 3 * tables[0].n_columns
        assert hits + misses == lookups
