"""Acceptance tests for the staged map pipeline (repro.core.pipeline).

The hard contract: the staged, memoized, re-enterable pipeline must
produce maps **bit-identical** to the pre-refactor single-pass
``build_map`` at the same seed — across residencies (in-memory vs
store), cache warmth (cold vs warm), and entry stages (full build vs a
k-override re-entering at the Cluster stage).  A faithful copy of the
pre-refactor single pass lives below as the reference.

The second contract: approximate-first counting.  With
``count_mode="approximate"`` maps return with sample-extrapolated
counts and 95% bounds, and refining them yields a map bit-identical to
a blocking exact build.
"""

import numpy as np
import pytest

from repro.cluster.clara import clara
from repro.cluster.distance import pairwise_distances
from repro.cluster.kselect import select_k_points
from repro.cluster.pam import pam
from repro.cluster.silhouette import SharedSilhouette, silhouette_samples
from repro.core.config import BlaeuConfig
from repro.core.datamap import DataMap
from repro.core.pipeline import (
    MapBuilder,
    MapBuildError,
    MapPipeline,
    _exemplars,
    _left_router,
    _tree_to_regions,
    build_map,
)
from repro.core.preprocess import preprocess
from repro.obs.metrics import reset_metrics
from repro.service.cache import LRUCache, TieredCache
from repro.store import StoredTable, write_store
from repro.table.predicates import Comparison, Everything
from repro.table.sampling import seed_for
from repro.tree.cart import fit_tree
from repro.tree.prune import prune_for_legibility
from repro.viz.export import export_map_json
from scrape import scraped
from synthetic import mixed_blobs

CONFIG = BlaeuConfig(
    map_k_values=(2, 3, 4),
    map_sample_size=250,
    clara_threshold=300,
    seed=11,
)
COLUMNS = ("x0", "x1")


# ----------------------------------------------------------------------
# The pre-refactor single-pass builder, kept verbatim as the reference
# ----------------------------------------------------------------------


def _legacy_cluster(matrix, config, rng, forced_k):
    n = matrix.shape[0]
    shared_matrix = None
    if n <= config.clara_threshold:
        shared_matrix = pairwise_distances(matrix)

    def cluster_fn(points, k):
        if shared_matrix is not None:
            return pam(shared_matrix, k, validate=False)
        return clara(
            points,
            k,
            n_draws=config.clara_draws,
            sample_size=config.clara_sample_size,
            rng=rng,
        )

    shared = SharedSilhouette(
        matrix,
        n_subsamples=config.silhouette_subsamples,
        subsample_size=config.silhouette_subsample_size,
        exact_threshold=config.silhouette_exact_threshold,
        rng=rng,
        distances=shared_matrix,
    )
    if forced_k is not None:
        clustering = cluster_fn(matrix, forced_k)
        return clustering, shared.score(clustering.labels), shared_matrix
    selection = select_k_points(
        matrix,
        cluster_fn,
        k_values=config.map_k_values,
        shared=shared,
    )
    return selection.clustering, selection.best.silhouette, shared_matrix


def _legacy_leaf_silhouettes(matrix, clustering, config, rng, shared_matrix):
    n = matrix.shape[0]
    if shared_matrix is not None:
        labels = clustering.labels
        distances = shared_matrix
    else:
        cap = max(config.silhouette_subsample_size * 2, 400)
        if n > cap:
            chosen = rng.choice(n, size=cap, replace=False)
        else:
            chosen = np.arange(n)
        labels = clustering.labels[chosen]
        distances = None
    if np.unique(labels).size < 2:
        return {int(c): 0.0 for c in np.unique(clustering.labels)}
    if distances is None:
        distances = pairwise_distances(matrix[chosen])
    values = silhouette_samples(distances, labels, validate=False)
    return {
        int(cluster): float(values[labels == cluster].mean())
        for cluster in np.unique(labels)
    }


def legacy_build_map(selection, columns, config, rng, k=None):
    """The pre-refactor ``build_map``: one sequential pass, one RNG.

    Counts are routed over the materialized selection itself — the old
    code path — so the comparison also covers the pipeline's switch to
    base-table routing restricted by the selection mask.
    """
    if selection.n_rows > config.map_sample_size:
        sample = selection.sample(config.map_sample_size, rng=rng)
    elif selection.residency == "store":
        sample = selection.take(np.arange(selection.n_rows, dtype=np.intp))
    else:
        sample = selection
    space = preprocess(
        sample,
        columns=columns,
        max_categorical_cardinality=config.max_categorical_cardinality,
    )
    clustering, silhouette, shared_matrix = _legacy_cluster(
        space.matrix, config, rng, k
    )
    describable = [name for name in columns if name in space.used_columns]
    tree = fit_tree(
        sample,
        clustering.labels,
        feature_names=describable,
        params=config.tree_params,
    )
    tree = prune_for_legibility(
        tree,
        target_leaves=clustering.k * config.prune_leaf_factor,
        min_accuracy=config.prune_min_fidelity,
    )
    fidelity = tree.accuracy(sample, clustering.labels)
    leaf_sil = _legacy_leaf_silhouettes(
        space.matrix, clustering, config, rng, shared_matrix
    )
    exemplars = _exemplars(sample, clustering, tuple(columns))
    root = _tree_to_regions(
        tree.root,
        selection.n_rows,
        _left_router(tree, selection),
        leaf_sil,
        exemplars,
    )
    return DataMap(
        root=root,
        columns=tuple(columns),
        k=clustering.k,
        silhouette=silhouette,
        fidelity=fidelity,
        sample_size=sample.n_rows,
    )


def chain_rng(table, config, selection_sql="TRUE"):
    """The generator every pipeline build starts from."""
    return np.random.default_rng(
        seed_for("pipeline", table.fingerprint(), config.digest(), selection_sql)
    )


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def table():
    return mixed_blobs(n_rows=900, k=3, seed=29).table


@pytest.fixture(scope="module")
def stored(table, tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline_store") / "s"
    write_store(table, root, chunk_rows=128)
    return StoredTable(root)


# ----------------------------------------------------------------------
# Bit-identity across warmth, residency and entry stage
# ----------------------------------------------------------------------


class TestBitIdentity:
    def test_cold_cached_build_matches_legacy_single_pass(self, table):
        builder = MapBuilder(result_cache=LRUCache(max_size=64))
        staged = builder.build(table, COLUMNS, config=CONFIG)
        legacy = legacy_build_map(
            table, COLUMNS, CONFIG, chain_rng(table, CONFIG)
        )
        assert staged.counts_status == "exact"
        assert export_map_json(staged) == export_map_json(legacy)

    def test_store_residency_matches_legacy_and_memory(self, table, stored):
        staged_memory = MapBuilder(result_cache=LRUCache(max_size=64)).build(
            table, COLUMNS, config=CONFIG
        )
        staged_store = MapBuilder(result_cache=LRUCache(max_size=64)).build(
            stored, COLUMNS, config=CONFIG
        )
        legacy = legacy_build_map(
            stored, COLUMNS, CONFIG, chain_rng(stored, CONFIG)
        )
        assert export_map_json(staged_store) == export_map_json(legacy)
        assert export_map_json(staged_store) == export_map_json(staged_memory)

    @pytest.mark.parametrize("residency", ["memory", "store"])
    def test_k_override_reenters_at_cluster_stage(
        self, table, stored, residency
    ):
        base = table if residency == "memory" else stored
        builder = MapBuilder(result_cache=LRUCache(max_size=64))
        builder.build(base, COLUMNS, config=CONFIG)  # warms sample..distances
        warm = builder.build(base, COLUMNS, config=CONFIG, k=4)
        hits = {stage.name: stage.hit for stage in builder.last.stages}
        # The re-entry consumed the cached early stages and recomputed
        # only Cluster and Describe.
        for stage in ("sample", "preprocess", "distances"):
            assert hits[stage] is True
        for stage in ("cluster", "describe"):
            assert hits[stage] is False

        cold = MapBuilder(result_cache=LRUCache(max_size=64)).build(
            base, COLUMNS, config=CONFIG, k=4
        )
        legacy = legacy_build_map(
            base, COLUMNS, CONFIG, chain_rng(base, CONFIG), k=4
        )
        assert export_map_json(warm) == export_map_json(cold)
        assert export_map_json(warm) == export_map_json(legacy)

    def test_project_reuses_the_sample_artifact(self, table):
        builder = MapBuilder(result_cache=LRUCache(max_size=64))
        builder.build(table, ("x0", "x1"), config=CONFIG)
        builder.build(table, ("x1", "x2"), config=CONFIG)
        hits = {stage.name: stage.hit for stage in builder.last.stages}
        assert hits["sample"] is True
        assert hits["preprocess"] is False

    def test_selection_predicate_matches_legacy_subset_build(self, table):
        predicate = Comparison("x0", ">", 0.0)
        builder = MapBuilder(result_cache=LRUCache(max_size=64))
        staged = builder.build(
            table, COLUMNS, config=CONFIG, selection=predicate
        )
        legacy = legacy_build_map(
            table.select(predicate),
            COLUMNS,
            CONFIG,
            chain_rng(table, CONFIG, predicate.to_sql()),
        )
        assert export_map_json(staged) == export_map_json(legacy)


# ----------------------------------------------------------------------
# Approximate → exact counting
# ----------------------------------------------------------------------


APPROX_CONFIG = BlaeuConfig(
    map_k_values=(2, 3, 4),
    map_sample_size=250,
    clara_threshold=300,
    seed=11,
    count_mode="approximate",
)


class TestApproximateCounts:
    def test_approximate_map_shape(self, table):
        builder = MapBuilder(result_cache=LRUCache(max_size=64))
        approx = builder.build(table, COLUMNS, config=APPROX_CONFIG)
        assert approx.counts_status == "approximate"
        # The root count is exact (the selection size is known), so it
        # alone carries no error bound.
        assert approx.root.n_rows == table.n_rows
        assert approx.root.n_rows_error is None
        for region in approx.regions():
            if region is not approx.root:
                assert region.n_rows_error is not None
                assert region.n_rows_error > 0
        assert approx.to_dict()["counts_status"] == "approximate"
        assert '"counts_status": "approximate"' in export_map_json(approx)

    def test_estimates_fall_within_their_bounds(self, table):
        builder = MapBuilder(result_cache=LRUCache(max_size=64))
        approx = builder.build(table, COLUMNS, config=APPROX_CONFIG)
        exact = builder.refine(
            table, COLUMNS, config=APPROX_CONFIG, current_map=approx
        )
        exact_counts = {r.region_id: r.n_rows for r in exact.regions()}
        assert approx.root.n_rows == exact_counts["r"]
        for region in approx.regions():
            if region is approx.root:
                continue
            # 95% bounds; the workload is seeded, so this is stable.
            assert (
                abs(region.n_rows - exact_counts[region.region_id])
                <= max(region.n_rows_error, 1) * 2
            )

    @pytest.mark.parametrize("residency", ["memory", "store"])
    def test_refined_map_is_bit_identical_to_blocking_exact(
        self, table, stored, residency
    ):
        base = table if residency == "memory" else stored
        builder = MapBuilder(result_cache=LRUCache(max_size=64))
        approx = builder.build(base, COLUMNS, config=APPROX_CONFIG)
        refined = builder.refine(
            base, COLUMNS, config=APPROX_CONFIG, current_map=approx
        )
        blocking = MapBuilder(result_cache=LRUCache(max_size=64)).build(
            base, COLUMNS, config=APPROX_CONFIG, count_mode="exact"
        )
        assert refined.counts_status == "exact"
        assert refined.refinement is None
        assert export_map_json(refined) == export_map_json(blocking)
        # ... and to the legacy single pass at the same seed.
        legacy = legacy_build_map(
            base, COLUMNS, APPROX_CONFIG, chain_rng(base, APPROX_CONFIG)
        )
        assert export_map_json(refined) == export_map_json(legacy)

    def test_refinement_patches_the_shared_cache(self, table):
        metrics = reset_metrics()
        cache = LRUCache(max_size=64)
        builder = MapBuilder(result_cache=cache)
        approx = builder.build(table, COLUMNS, config=APPROX_CONFIG)
        assert approx.counts_status == "approximate"
        builder.refine(table, COLUMNS, config=APPROX_CONFIG)
        # Every later session sees the exact map straight from cache.
        served = builder.build(table, COLUMNS, config=APPROX_CONFIG)
        assert served.counts_status == "exact"
        assert metrics.counter("blaeu_pipeline_refinements_total") == 1

    def test_exact_request_upgrades_a_cached_approximate_map(self, table):
        metrics = reset_metrics()
        builder = MapBuilder(result_cache=LRUCache(max_size=64))
        builder.build(table, COLUMNS, config=APPROX_CONFIG)
        exact = builder.build(
            table, COLUMNS, config=APPROX_CONFIG, count_mode="exact"
        )
        assert exact.counts_status == "exact"
        assert metrics.counter("blaeu_pipeline_refinements_total") == 1

    def test_count_mode_configs_share_results(self, table):
        """count_mode is result-neutral: an exact-mode config produces
        the very map an approximate-mode config refines to, through the
        same cache entries and the same key-derived randomness."""
        cache = LRUCache(max_size=64)
        builder = MapBuilder(result_cache=cache)
        exact_config = BlaeuConfig(
            map_k_values=APPROX_CONFIG.map_k_values,
            map_sample_size=APPROX_CONFIG.map_sample_size,
            clara_threshold=APPROX_CONFIG.clara_threshold,
            seed=APPROX_CONFIG.seed,
        )
        approx = builder.build(table, COLUMNS, config=APPROX_CONFIG)
        refined = builder.refine(
            table, COLUMNS, config=APPROX_CONFIG, current_map=approx
        )
        # A session running the exact-mode twin config is served the
        # refined map straight from cache — no rebuild.
        metrics = reset_metrics()
        served = builder.build(table, COLUMNS, config=exact_config)
        assert served is refined
        assert metrics.counter("blaeu_pipeline_builds_total") == 0

    def test_small_selections_are_exact_immediately(self, table):
        config = BlaeuConfig(
            map_k_values=(2, 3),
            map_sample_size=2000,  # sample == selection
            seed=11,
            count_mode="approximate",
        )
        approx = MapBuilder(result_cache=LRUCache(max_size=8)).build(
            table, COLUMNS, config=config
        )
        assert approx.counts_status == "exact"
        assert approx.refinement is None

    def test_approximate_never_changes_the_clustering(self, table):
        builder = MapBuilder(result_cache=LRUCache(max_size=64))
        approx = builder.build(table, COLUMNS, config=APPROX_CONFIG)
        exact = MapBuilder(result_cache=LRUCache(max_size=64)).build(
            table, COLUMNS, config=APPROX_CONFIG, count_mode="exact"
        )
        assert approx.k == exact.k
        assert approx.silhouette == exact.silhouette
        assert approx.fidelity == exact.fidelity
        assert [r.region_id for r in approx.regions()] == [
            r.region_id for r in exact.regions()
        ]


# ----------------------------------------------------------------------
# Structured build errors
# ----------------------------------------------------------------------


class TestMapBuildErrors:
    def test_empty_columns(self, table):
        with pytest.raises(MapBuildError, match="at least one active column"):
            build_map(table, ())
        assert issubclass(MapBuildError, ValueError)

    def test_tiny_selection(self, table):
        with pytest.raises(MapBuildError, match="nothing to cluster"):
            build_map(table.head(1), COLUMNS)

    def test_tiny_selection_through_a_predicate(self, table):
        builder = MapBuilder(result_cache=LRUCache(max_size=8))
        with pytest.raises(MapBuildError, match="nothing to cluster"):
            builder.build(
                table,
                COLUMNS,
                config=CONFIG,
                selection=Comparison("x0", ">", 1e12),
            )


# ----------------------------------------------------------------------
# Pipeline internals
# ----------------------------------------------------------------------


class TestPipelineMechanics:
    def test_stage_artifacts_are_keyed_by_selection(self, table):
        metrics = reset_metrics()
        cache = TieredCache(LRUCache(max_size=64))
        MapPipeline(table, COLUMNS, CONFIG, cache=cache).build()
        MapPipeline(
            table,
            COLUMNS,
            CONFIG,
            selection=Comparison("x0", ">", 0.0),
            cache=cache,
        ).build()
        # Distinct selections never share artifacts.
        assert scraped(metrics, "blaeu_cache_hits_total", tier="l1") == 0

    def test_everything_selection_matches_none(self, table):
        a = MapPipeline(table, COLUMNS, CONFIG).build()
        b = MapPipeline(table, COLUMNS, CONFIG, selection=Everything()).build()
        # Both name the same canonical action path, hence the same seed.
        assert export_map_json(a) == export_map_json(b)

    def test_builder_metrics_counters(self, table):
        metrics = reset_metrics()
        builder = MapBuilder(result_cache=LRUCache(max_size=64))
        builder.build(table, COLUMNS, config=CONFIG)
        builder.build(table, COLUMNS, config=CONFIG)
        builder.build(table, COLUMNS, config=CONFIG, k=4)
        assert metrics.counter("blaeu_pipeline_builds_total") == 2
        assert metrics.counter("blaeu_pipeline_map_hits_total") == 1
        assert metrics.counter("blaeu_pipeline_map_misses_total") == 2
        assert metrics.counter("blaeu_pipeline_sample_hits_total") == 1
        assert metrics.counter("blaeu_pipeline_cluster_misses_total") == 2
