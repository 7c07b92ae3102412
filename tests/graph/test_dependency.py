"""Unit tests for the column dependency graph."""

import numpy as np
import pytest

from oracles import pearson, spearman
from repro.graph.dependency import GraphBuilder
from repro.obs.metrics import reset_metrics
from repro.service.cache import LRUCache
from repro.table.column import CategoricalColumn, NumericColumn
from repro.table.table import Table
from synthetic import planted_themes


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

    def test_edge_threshold(self, themed):
        graph = GraphBuilder().build(themed.table)
        assert all(w >= 0.5 for _, _, w in graph.edges(min_weight=0.5))

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

    def test_correlation_measures(self, themed):
        for measure in ("pearson", "spearman"):
            graph = GraphBuilder().build(themed.table, measure=measure)
            within = graph.weight("eco_0", "eco_1")
            across = graph.weight("eco_0", "health_0")
            assert within > across

    def test_correlation_zero_for_categorical(self, rng):
        table = Table(
            "t",
            [
                NumericColumn("x", rng.normal(0, 1, 50)),
                CategoricalColumn.from_labels(
                    "c", list(rng.choice(["a", "b"], 50))
                ),
            ],
        )
        graph = GraphBuilder().build(table, measure="pearson")
        assert graph.weight("x", "c") == 0.0

    def test_unknown_measure_rejected(self, themed):
        with pytest.raises(ValueError):
            GraphBuilder().build(themed.table, measure="cosine")


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

    def test_thread_fanout_identical(self, themed):
        serial = GraphBuilder().build(themed.table, n_jobs=None)
        for n_jobs in (1, 2, 0):
            parallel = GraphBuilder().build(themed.table, n_jobs=n_jobs)
            assert np.array_equal(serial.weights, parallel.weights)

    def test_row_indices_arange_equals_full(self, themed):
        full = GraphBuilder().build(themed.table)
        explicit = GraphBuilder().build(
            themed.table,
            row_indices=np.arange(themed.table.n_rows, dtype=np.intp),
        )
        assert np.array_equal(full.weights, explicit.weights)


class TestVectorizedCorrelation:
    @pytest.fixture
    def noisy(self):
        rng = np.random.default_rng(17)
        n = 250
        base = rng.normal(0.0, 1.0, n)
        columns = []
        for i in range(6):
            values = base * rng.uniform(-2, 2) + rng.normal(0.0, 1.0, n)
            values += rng.uniform(-1e4, 1e4)  # large offsets: cancellation
            if i % 2 == 0:
                values[rng.random(n) < 0.15] = np.nan
            columns.append(NumericColumn(f"c{i}", values))
        columns.append(
            CategoricalColumn.from_labels(
                "cat", list(rng.choice(["a", "b"], n))
            )
        )
        return Table("noisy", columns)

    def test_pearson_matches_scalar_pairwise(self, noisy):
        graph = GraphBuilder().build(noisy, measure="pearson")
        for i, a in enumerate(noisy.column_names):
            for b in noisy.column_names[i + 1 :]:
                col_a, col_b = noisy.column(a), noisy.column(b)
                if isinstance(col_a, NumericColumn) and isinstance(
                    col_b, NumericColumn
                ):
                    expected = abs(pearson(col_a.values, col_b.values))
                else:
                    expected = 0.0
                assert graph.weight(a, b) == pytest.approx(
                    expected, abs=1e-10
                )

    def test_spearman_matches_scalar_on_complete_data(self):
        rng = np.random.default_rng(23)
        table = Table(
            "complete",
            [NumericColumn(f"d{i}", rng.normal(0, 1, 200)) for i in range(5)],
        )
        graph = GraphBuilder().build(table, measure="spearman")
        for i, a in enumerate(table.column_names):
            for b in table.column_names[i + 1 :]:
                expected = abs(
                    spearman(table.column(a).values, table.column(b).values)
                )
                assert graph.weight(a, b) == pytest.approx(
                    expected, abs=1e-10
                )


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

        from repro.graph.codes import CodeCache, gather_codes
        from synthetic import mixed_blobs

        class CountingCodeCache(CodeCache):
            def __init__(self) -> None:
                super().__init__()
                self.lookups = 0
                self._lookup_lock = threading.Lock()

            def get(self, key):
                with self._lookup_lock:
                    self.lookups += 1
                return super().get(key)

        tables = [
            mixed_blobs(n_rows=2_000, k=3, seed=seed, name=f"t{seed}").table
            for seed in range(4)
        ]
        cache = CountingCodeCache()
        for table in tables:  # warm: every column's cuts are cached
            gather_codes(table, table.column_names, cache=cache, rows=np.arange(9))
        builder = GraphBuilder(code_cache=cache)
        metrics = reset_metrics()
        cache.lookups = 0
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
        assert cache.lookups == 4 * 3 * tables[0].n_columns
        assert hits + misses == cache.lookups
