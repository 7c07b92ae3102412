"""The staged map pipeline (paper §3, Figure 3) with per-stage reuse.

Map building as one opaque function made every navigation action — zoom,
project, k-override, rollback-and-re-map — recompute all of sampling,
preprocessing, distance work, clustering, description and exact
counting, and block on the exact-count routing pass over the full
selection.  This module makes the pipeline explicit:

========== ============================================================
stage       artifact
========== ============================================================
sample      the sampled slice of the selection (+ selection bitmap/size)
preprocess  the :class:`~repro.core.preprocess.FeatureSpace`
distances   the shared pairwise matrix (``None`` at CLARA scale)
cluster     the clustering, its silhouette, per-leaf silhouettes
describe    the pruned CART tree, its fidelity, cluster exemplars
count       the finished :class:`~repro.core.datamap.DataMap`
========== ============================================================

Each stage produces an immutable artifact memoized under a
content-addressed key (table fingerprint + config digest + canonical
action path + the stage's own inputs) in the shared service cache, so
navigation re-enters the pipeline mid-way: a k-override re-enters at the
Cluster stage on the cached sample/space/distance matrix; re-mapping the
same selection under another theme reuses the Sample artifact; repeating
an action path anywhere returns the finished map.

**RNG discipline.**  Every build — cached or not, in the shell, the
library or the server — seeds its Sample stage with
:func:`~repro.table.sampling.seed_for` of the content key
``("pipeline", table fingerprint, config digest, selection SQL)``, and
every downstream stage resumes the post-sample generator state recorded
in the sample artifact.  So a map depends on what was asked, never on
cache warmth, the entry stage or what the session did before; and the
staged build is **bit-identical** to the single-pass reference builder
(``tests/core/test_pipeline.py``) started from the same seed.

**Two-phase counting.**  With ``config.count_mode = "approximate"``,
maps return immediately with sample-extrapolated region counts
(``counts_status="approximate"``; each region carries a 95% ``±``
bound from the sample fraction), and the exact chunked routing pass —
in-memory and store residencies alike — can run later via
:func:`refine_exact` (the service pushes it through its worker pool and
patches the shared cache).  The refined map is bit-identical to a
blocking exact build.
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import dataclass

import numpy as np

from repro.cluster.stages import (
    ClusterParams,
    cluster_features,
    leaf_silhouettes,
    shared_distance_matrix,
)
from repro.core.config import BlaeuConfig
from repro.core.datamap import DataMap, Region
from repro.core.preprocess import FeatureSpace, preprocess
from repro.obs.metrics import get_metrics
from repro.obs.trace import get_tracer, note
from repro.resilience.deadline import checkpoint
from repro.resilience.faults import fault_point
from repro.table.predicates import And, Comparison, Everything, Predicate
from repro.table.sampling import seed_for, uniform_sample
from repro.table.table import Table
from repro.tree.cart import DecisionTree, TreeNode, count_reaching, fit_tree
from repro.tree.prune import prune_for_legibility

__all__ = [
    "BuildRecord",
    "MapBuildError",
    "MapBuilder",
    "MapPipeline",
    "STAGES",
    "StageRecord",
    "build_map",
    "map_cache_key",
    "refine_exact",
]

#: Pipeline stages, in execution order.
STAGES = ("sample", "preprocess", "distances", "cluster", "describe", "count")

#: z-score of the two-sided 95% interval behind ``n_rows_error``.
_Z95 = 1.96


class MapBuildError(ValueError):
    """A map request the engine cannot satisfy as posed.

    Raised for client-fixable conditions — an empty active-column set,
    a selection too small to cluster — so the serving layer can answer
    with a structured ``400`` instead of a generic engine error.
    Subclasses :class:`ValueError`, so pre-existing ``except
    ValueError`` callers keep working.
    """


def map_cache_key(
    table: Table,
    selection_sql: str,
    columns: tuple[str, ...],
    config: BlaeuConfig,
    k: int | None = None,
) -> tuple[str, str, str, tuple[str, ...], int | None]:
    """The canonical cache key of one map-building request.

    Combines the *content* fingerprint of the base table, the config
    digest and the canonical action path (selection predicate rendered
    as SQL, plus the active columns) — so two sessions that navigated to
    the same place share a key even if they got there independently.
    """
    return (table.fingerprint(), config.digest(), selection_sql, tuple(columns), k)


# ----------------------------------------------------------------------
# Stage artifacts
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SampleArtifact:
    """The Sample stage's output: the slice the pipeline clusters.

    ``selection_mask`` is the selection as a packed bitmap
    (``np.packbits`` of the boolean row mask: ⌈n/8⌉ bytes, ``None`` for
    every row), so a cached sample costs what its sample holds, not a
    byte per table row.  ``rng_state`` is the generator state *after*
    sampling; the Cluster stage resumes it, so a build entering
    mid-pipeline consumes exactly the random stream a cold single pass
    would have.
    """

    sample: Table
    selection_mask: np.ndarray | None
    n_selection: int
    rng_state: dict


@dataclass(frozen=True)
class SpaceArtifact:
    """The Preprocess stage's output (the clustering feature space)."""

    space: FeatureSpace


@dataclass(frozen=True)
class DistanceArtifact:
    """The Distances stage's output (``None`` matrix at CLARA scale)."""

    matrix: np.ndarray | None


@dataclass(frozen=True)
class ClusterArtifact:
    """The Cluster stage's output for one (sample, columns, k) triple."""

    clustering: object
    silhouette: float
    leaf_silhouettes: dict[int, float]


@dataclass(frozen=True)
class DescribeArtifact:
    """The Describe stage's output: the pruned tree and its trimmings."""

    tree: DecisionTree
    fidelity: float
    exemplars: dict[int, dict[str, object]]


@dataclass(frozen=True)
class StageRecord:
    """One stage's outcome in one build: answered from the cache or
    computed, and the seconds it took (lookup, or compute and store)."""

    name: str
    hit: bool
    seconds: float


@dataclass(frozen=True)
class BuildRecord:
    """One map request's outcome — the builder's single telemetry record.

    ``outcome`` is ``"hit"`` (the finished map came from the cache),
    ``"miss"`` (built after a map-cache miss), ``"uncached"`` (built with
    no cache installed), ``"refine"`` (an approximate map upgraded to
    exact counts by :meth:`MapBuilder.refine`) or ``"upgrade"`` (an exact
    request that hit a cached approximate map and upgraded it).
    ``stages`` holds the pipeline stages the request ran, in order; it is
    empty when no pipeline ran.  Counters, histograms, the access-log
    note and :attr:`MapBuilder.last` all derive from this record
    (:meth:`MapBuilder._publish`).
    """

    outcome: str
    seconds: float
    stages: tuple[StageRecord, ...] = ()


# ----------------------------------------------------------------------
# The pipeline (one build request)
# ----------------------------------------------------------------------


class MapPipeline:
    """One map request, executed stage by stage with memoized re-entry.

    Parameters
    ----------
    table:
        The *base* table (in-memory or store-backed).
    columns:
        Active column set.
    config:
        Engine knobs.
    selection:
        Selection predicate over ``table`` (``None`` = everything).  It
        is evaluated as a chunked scan (:meth:`Table.scan_mask`); the
        full selection is never materialized.
    k:
        Force a cluster count instead of silhouette selection.
    cache:
        Stage-artifact memo (any ``get``/``put`` mapping; the service's
        shared cache).  ``None`` disables stage reuse; the map is the
        same either way.

    Each stage the pipeline runs appends one :class:`StageRecord` to
    :attr:`stages`, in execution order.
    """

    def __init__(
        self,
        table: Table,
        columns: tuple[str, ...],
        config: BlaeuConfig,
        selection: Predicate | None = None,
        k: int | None = None,
        cache: object | None = None,
    ) -> None:
        if not columns:
            raise MapBuildError("build_map needs at least one active column")
        self._table = table
        self._columns = tuple(columns)
        self._config = config
        self._selection = selection
        self._selection_sql = _selection_sql(selection)
        self._k = k
        self._cache = cache
        self.stages: list[StageRecord] = []
        self._local: dict[str, object] = {}
        self._base_key: tuple | None = None

    # ------------------------------------------------------------------
    # Stage plumbing
    # ------------------------------------------------------------------

    def _key_base(self) -> tuple:
        """The content prefix of every stage key and of the build's seed
        (hashed once per build; the fingerprint is memoized per table)."""
        if self._base_key is None:
            self._base_key = (
                self._table.fingerprint(),
                self._config.digest(),
                self._selection_sql,
            )
        return self._base_key

    def _stage_key(self, stage: str, *parts: object) -> tuple | None:
        """A stage's cache key, or ``None`` when no cache is consulted."""
        if self._cache is None:
            return None
        return ("stage", stage, *self._key_base(), *parts)

    def _stage(self, name: str, key: tuple | None, compute):
        """Run one stage through the per-run memo and the shared cache.

        Each cache-consulting or computing pass runs under a
        ``stage.<name>`` span carrying the cache outcome.
        """
        if name in self._local:
            return self._local[name]
        # Cooperative deadline checkpoint + chaos hook: an expired
        # request aborts here, between stages, instead of computing a
        # result nobody is waiting for.  A cached or completed stage is
        # never torn — the abort happens before compute starts.
        checkpoint("stage." + name)
        fault_point("stage." + name)
        with get_tracer().span("stage." + name) as span:
            started = time.perf_counter()
            value = self._cache.get(key) if self._cache is not None else None
            hit = value is not None
            if not hit:
                value = compute()
                if self._cache is not None:
                    self._cache.put(key, value)
            self.stages.append(
                StageRecord(name, hit, time.perf_counter() - started)
            )
            self._local[name] = value
            if span.enabled:
                span.set("cache_hit", hit)
            return value

    def _params(self) -> ClusterParams:
        config = self._config
        return ClusterParams(
            k_values=config.map_k_values,
            clara_threshold=config.clara_threshold,
            clara_draws=config.clara_draws,
            clara_sample_size=config.clara_sample_size,
            silhouette_subsamples=config.silhouette_subsamples,
            silhouette_subsample_size=config.silhouette_subsample_size,
            silhouette_exact_threshold=config.silhouette_exact_threshold,
        )

    def _chain_rng(self) -> np.random.Generator:
        """The generator the Sample stage starts from."""
        return np.random.default_rng(seed_for("pipeline", *self._key_base()))

    def _resume_rng(self, state: dict) -> np.random.Generator:
        """A generator resumed at a recorded post-stage state."""
        generator = np.random.default_rng(0)
        generator.bit_generator.state = copy.deepcopy(state)
        return generator

    # ------------------------------------------------------------------
    # Stages
    # ------------------------------------------------------------------

    def sample_artifact(self) -> SampleArtifact:
        """Stage 0: sample the selection (only the sampled rows are gathered)."""
        key = self._stage_key("sample")
        return self._stage("sample", key, self._compute_sample)

    def _compute_sample(self) -> SampleArtifact:
        table, config = self._table, self._config
        rng = self._chain_rng()
        predicate = self._selection
        if predicate is None or isinstance(predicate, Everything):
            mask, n_selection = None, table.n_rows
        else:
            mask = table.scan_mask(predicate)
            n_selection = int(mask.sum())
        if n_selection < 2:
            raise MapBuildError(
                f"selection has {n_selection} rows; nothing to cluster"
            )
        # Only the sampled slice is ever materialized: the picked rows
        # are gathered (on a store, each column file mapped for that
        # gather only), and a selection no larger than the sample is
        # gathered whole — at most ``map_sample_size`` rows.
        if n_selection > config.map_sample_size:
            if mask is None:
                sample = table.sample(config.map_sample_size, rng=rng)
            else:
                picked = uniform_sample(n_selection, config.map_sample_size, rng)
                sample = table.take(np.flatnonzero(mask)[picked])
        elif mask is not None:
            sample = table.take(np.flatnonzero(mask))
        else:
            sample = table.take(np.arange(table.n_rows, dtype=np.intp))
        return SampleArtifact(
            sample=sample,
            selection_mask=None if mask is None else np.packbits(mask),
            n_selection=n_selection,
            rng_state=copy.deepcopy(rng.bit_generator.state),
        )

    def space_artifact(self) -> SpaceArtifact:
        """Stage 1: preprocess the sample into clustering vectors."""
        key = self._stage_key("space", self._columns)

        def compute() -> SpaceArtifact:
            sample = self.sample_artifact().sample
            return SpaceArtifact(
                space=preprocess(
                    sample,
                    columns=self._columns,
                    max_categorical_cardinality=(
                        self._config.max_categorical_cardinality
                    ),
                )
            )

        return self._stage("preprocess", key, compute)

    def distance_artifact(self) -> DistanceArtifact:
        """Stage 2a: the shared pairwise matrix (``None`` at CLARA scale)."""
        key = self._stage_key("distances", self._columns)

        def compute() -> DistanceArtifact:
            space = self.space_artifact().space
            return DistanceArtifact(
                matrix=shared_distance_matrix(space.matrix, self._params())
            )

        return self._stage("distances", key, compute)

    def cluster_artifact(self) -> ClusterArtifact:
        """Stage 2b: cluster the vectors; k forced or by silhouette."""
        key = self._stage_key("cluster", self._columns, self._k)

        def compute() -> ClusterArtifact:
            space = self.space_artifact().space
            distances = self.distance_artifact().matrix
            params = self._params()
            rng = self._resume_rng(self.sample_artifact().rng_state)
            outcome = cluster_features(
                space.matrix, params, rng, forced_k=self._k, distances=distances
            )
            leaves = leaf_silhouettes(
                space.matrix, outcome.clustering, params, rng, distances=distances
            )
            return ClusterArtifact(
                clustering=outcome.clustering,
                silhouette=outcome.silhouette,
                leaf_silhouettes=leaves,
            )

        return self._stage("cluster", key, compute)

    def describe_artifact(self) -> DescribeArtifact:
        """Stage 3: describe the clusters with a pruned CART tree."""
        key = self._stage_key("describe", self._columns, self._k)

        def compute() -> DescribeArtifact:
            config = self._config
            sample = self.sample_artifact().sample
            space = self.space_artifact().space
            clustering = self.cluster_artifact().clustering
            describable = [
                name for name in self._columns if name in space.used_columns
            ]
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
            return DescribeArtifact(
                tree=tree,
                fidelity=tree.accuracy(sample, clustering.labels),
                exemplars=_exemplars(sample, clustering, self._columns),
            )

        return self._stage("describe", key, compute)

    # ------------------------------------------------------------------
    # Stage 4: counting, approximate or exact
    # ------------------------------------------------------------------

    def build(self, count_mode: str | None = None) -> DataMap:
        """Run the pipeline to a finished map.

        ``count_mode`` overrides ``config.count_mode``.  Approximate
        counting degenerates to exact whenever the sample *is* the
        selection (small selections never show approximate counts).
        """
        mode = count_mode or self._config.count_mode
        # Resolve in forward order so each stage's recorded timing is
        # its own work (the getters resolve dependencies lazily, which
        # would otherwise bill a stage for its whole upstream chain).
        sample_art = self.sample_artifact()
        self.space_artifact()
        self.distance_artifact()
        cluster = self.cluster_artifact()
        describe = self.describe_artifact()
        approximate = (
            mode == "approximate"
            and sample_art.sample.n_rows < sample_art.n_selection
        )
        started = time.perf_counter()
        with get_tracer().span("stage.count") as span:
            if approximate:
                root = _approximate_regions(
                    describe.tree,
                    sample_art.sample,
                    sample_art.n_selection,
                    cluster.leaf_silhouettes,
                    describe.exemplars,
                )
                status: str = "approximate"
                refinement: object | None = describe.tree
            else:
                root = _exact_regions(
                    describe.tree,
                    self._table,
                    sample_art.selection_mask,
                    cluster.leaf_silhouettes,
                    describe.exemplars,
                )
                status, refinement = "exact", None
            if span.enabled:
                span.set("mode", status)
        self.stages.append(
            StageRecord("count", False, time.perf_counter() - started)
        )
        return DataMap(
            root=root,
            columns=self._columns,
            k=cluster.clustering.k,
            silhouette=cluster.silhouette,
            fidelity=describe.fidelity,
            sample_size=sample_art.sample.n_rows,
            counts_status=status,
            refinement=refinement,
        )


# ----------------------------------------------------------------------
# The per-engine builder (mirrors repro.graph.dependency.GraphBuilder)
# ----------------------------------------------------------------------


class MapBuilder:
    """Map construction with navigation-aware, cross-session reuse.

    One builder is shared per engine.  An optional ``result_cache``
    (any ``get(key)``/``put(key, value)`` mapping — the service installs
    its shared map cache) memoizes finished maps *and* every
    intermediate stage artifact, so navigation actions re-enter the
    pipeline mid-way instead of rebuilding from the table.  The cache
    changes what a build costs, never what it returns (see the module
    docstring's RNG discipline).

    Every map-cache hit, build, refinement and exact upgrade becomes one
    :class:`BuildRecord`; :meth:`_publish` derives the
    ``blaeu_pipeline_*`` counters and histograms of the process-global
    registry, the ``map_cache`` access-log note and :attr:`last` from it.
    """

    def __init__(self, result_cache: object | None = None) -> None:
        self._result_cache = result_cache
        #: The most recent request's record (``None`` before the first).
        self.last: BuildRecord | None = None

    @property
    def result_cache(self) -> object | None:
        """The shared result cache (``None`` when memoization is off)."""
        return self._result_cache

    def set_result_cache(self, cache: object | None) -> None:
        """Install (or remove) the shared result cache."""
        self._result_cache = cache

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------

    def build(
        self,
        table: Table,
        columns: tuple[str, ...],
        config: BlaeuConfig | None = None,
        selection: Predicate | None = None,
        k: int | None = None,
        count_mode: str | None = None,
    ) -> DataMap:
        """Build (or recall) the map of ``selection`` over ``columns``.

        A cache hit costs one lookup — the selection predicate is never
        evaluated.  ``count_mode`` overrides ``config.count_mode``; an
        exact request that hits a cached approximate map upgrades it in
        place (and re-caches the exact result).
        """
        config = config or BlaeuConfig()
        columns = tuple(columns)
        mode = count_mode or config.count_mode
        started = time.perf_counter()
        with get_tracer().span("map.build") as span:
            cache = self._result_cache
            key = None
            if cache is not None:
                key = map_cache_key(
                    table, _selection_sql(selection), columns, config, k=k
                )
                hit = cache.get(key)
                if hit is not None:
                    if span.enabled:
                        span.set("cache_hit", True)
                    if hit.counts_status == "exact" or mode == "approximate":
                        # A hit is the whole request: its record holds
                        # the lookup, not the previous cold build.
                        self._publish(
                            BuildRecord("hit", time.perf_counter() - started)
                        )
                        return hit
                    return self._upgrade(
                        hit,
                        table,
                        columns,
                        config,
                        selection,
                        k,
                        key,
                        "upgrade",
                        started,
                    )
            if span.enabled:
                span.set("cache_hit", False)
                span.set("table", table.name)
                span.set("mode", mode)
            pipeline = MapPipeline(
                table, columns, config, selection=selection, k=k, cache=cache
            )
            data_map = pipeline.build(mode)
            if key is not None:
                cache.put(key, data_map)
            self._publish(
                BuildRecord(
                    "miss" if cache is not None else "uncached",
                    time.perf_counter() - started,
                    tuple(pipeline.stages),
                )
            )
            return data_map

    def refine(
        self,
        table: Table,
        columns: tuple[str, ...],
        config: BlaeuConfig | None = None,
        selection: Predicate | None = None,
        current_map: DataMap | None = None,
    ) -> DataMap:
        """Upgrade an approximate map to exact counts.

        Prefers a cached exact map (another session may have refined
        first); otherwise runs the exact chunked routing pass over the
        full selection using the map's own description tree, patches the
        shared cache, and returns the exact map.  The result is
        bit-identical to a blocking exact build of the same request.
        """
        config = config or BlaeuConfig()
        columns = tuple(columns)
        started = time.perf_counter()
        with get_tracer().span("map.refine") as span:
            cache = self._result_cache
            key = None
            if cache is not None:
                key = map_cache_key(
                    table, _selection_sql(selection), columns, config
                )
                hit = cache.get(key)
                if hit is not None:
                    if hit.counts_status == "exact":
                        if span.enabled:
                            span.set("cache_hit", True)
                        return hit
                    current_map = hit
            if current_map is None:
                return self.build(
                    table,
                    columns,
                    config=config,
                    selection=selection,
                    count_mode="exact",
                )
            if current_map.counts_status == "exact":
                return current_map
            return self._upgrade(
                current_map,
                table,
                columns,
                config,
                selection,
                None,
                key,
                "refine",
                started,
            )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _upgrade(
        self,
        approximate: DataMap,
        table: Table,
        columns: tuple[str, ...],
        config: BlaeuConfig,
        selection: Predicate | None,
        k: int | None,
        key: tuple | None,
        outcome: str,
        started: float,
    ) -> DataMap:
        stages: tuple[StageRecord, ...] = ()
        if approximate.refinement is not None:
            with get_tracer().span("map.upgrade") as span:
                exact = refine_exact(approximate, table, selection)
                if span.enabled:
                    span.set("table", table.name)
        else:
            # No refinement context (e.g. a foreign cache entry): rerun
            # the pipeline exactly; cached stage artifacts keep it cheap.
            pipeline = MapPipeline(
                table,
                columns,
                config,
                selection=selection,
                k=k,
                cache=self._result_cache,
            )
            exact = pipeline.build("exact")
            stages = tuple(pipeline.stages)
        if self._result_cache is not None and key is not None:
            self._result_cache.put(key, exact)
        self._publish(
            BuildRecord(outcome, time.perf_counter() - started, stages)
        )
        return exact

    def _publish(self, record: BuildRecord) -> None:
        """Derive every counter, histogram and note from one record.

        A map-cache hit (``hit``, ``upgrade``) or miss (``miss``, and
        ``uncached``, which counts no miss) is noted for the access log;
        an upgrade to exact counts (``refine``, ``upgrade``) counts a
        refinement; a record that ran the pipeline counts a build and
        each stage's hit or miss.  Per-stage latency histograms cover
        computed stages only: a cache hit's lookup time would drown the
        signal.
        """
        metrics = get_metrics()
        outcome = record.outcome
        if outcome in ("hit", "upgrade"):
            metrics.increment("blaeu_pipeline_map_hits_total")
            note("map_cache", "hit")
        elif outcome in ("miss", "uncached"):
            if outcome == "miss":
                metrics.increment("blaeu_pipeline_map_misses_total")
            note("map_cache", "miss")
        if outcome in ("refine", "upgrade"):
            metrics.increment("blaeu_pipeline_refinements_total")
        if record.stages:
            metrics.increment("blaeu_pipeline_builds_total")
            metrics.observe("blaeu_pipeline_build_seconds", record.seconds)
        for stage in record.stages:
            if stage.hit:
                metrics.increment(f"blaeu_pipeline_{stage.name}_hits_total")
                continue
            metrics.increment(f"blaeu_pipeline_{stage.name}_misses_total")
            metrics.observe(
                f"blaeu_pipeline_stage_seconds_{stage.name}", stage.seconds
            )
        self.last = record


def build_map(
    selection: Table,
    columns: tuple[str, ...],
    config: BlaeuConfig | None = None,
    k: int | None = None,
    count_mode: str | None = None,
) -> DataMap:
    """The data map of ``selection`` (a table of already-selected tuples)
    over ``columns``, in one shot.

    ``k`` forces a cluster count instead of silhouette selection;
    ``count_mode`` overrides ``config.count_mode``.  Long-lived callers
    hold a :class:`MapBuilder`, which adds the result cache and the
    build records; the map is the same.
    """
    pipeline = MapPipeline(selection, tuple(columns), config or BlaeuConfig(), k=k)
    return pipeline.build(count_mode)


# ----------------------------------------------------------------------
# Counting passes
# ----------------------------------------------------------------------


def refine_exact(
    approximate: DataMap,
    table: Table,
    selection: Predicate | None = None,
) -> DataMap:
    """The exact-count upgrade of an approximate map.

    Routes the full selection through the map's own description tree
    (one chunked pass over just the split columns: :func:`_node_counts`)
    and rebuilds the region hierarchy with exact counts.  Everything
    else (clustering, silhouettes, tree, exemplars, fidelity) is carried
    over unchanged, so the result is bit-identical to a blocking exact
    build of the same request.
    """
    tree = approximate.refinement
    if not isinstance(tree, DecisionTree):
        raise ValueError(
            "map carries no refinement context; rebuild it with "
            "count_mode='exact' instead"
        )
    if selection is None or isinstance(selection, Everything):
        mask = None
    else:
        mask = np.packbits(table.scan_mask(selection))
    leaves = [leaf for leaf in approximate.leaves() if leaf.cluster is not None]
    root = _exact_regions(
        tree,
        table,
        mask,
        {leaf.cluster: leaf.silhouette for leaf in leaves},
        {leaf.cluster: leaf.exemplar for leaf in leaves},
    )
    return DataMap(
        root=root,
        columns=approximate.columns,
        k=approximate.k,
        silhouette=approximate.silhouette,
        fidelity=approximate.fidelity,
        sample_size=approximate.sample_size,
        counts_status="exact",
        refinement=None,
    )


def _exact_regions(
    tree: DecisionTree,
    table: Table,
    selection: np.ndarray | None,
    leaf_silhouettes: dict[int, float],
    exemplars: dict[int, dict[str, object]],
) -> Region:
    """Region hierarchy with exact counts over the full selection
    (a packed bitmap, ``None`` for every row).

    The selection is never materialized, on either residency: the
    count pass (:func:`_node_counts`) reads only the split columns,
    only in the chunks that hold a selected row, and routes only the
    selected rows down the tree.
    """
    # The hierarchy is mirrored over zero rows (structure, predicates,
    # labels), then every region takes the count the pass produced for
    # its node: both walks are pre-order, left before right.
    root = _tree_to_regions(
        tree.root,
        0,
        lambda node: np.zeros(0, dtype=bool),
        leaf_silhouettes,
        exemplars,
    )
    counts = _node_counts(tree, table, selection)
    for region, count in zip(root.walk(), counts):
        region.n_rows = int(count)
    return root


#: Set bits per byte value: a bitmap's row count without unpacking it.
_POPCOUNT = np.array([bin(byte).count("1") for byte in range(256)], dtype=np.uint8)


def packed_count(selection: np.ndarray) -> int:
    """How many rows a packed selection bitmap selects."""
    return int(_POPCOUNT[selection].sum(dtype=np.int64))


def _selection_rows(selection: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Rows ``[start, stop)`` of a packed selection bitmap as a boolean
    mask: the byte-aligned superset is unpacked, then sliced."""
    first = start // 8
    bits = np.unpackbits(selection[first : -(-stop // 8)])
    return bits[start - 8 * first : stop - 8 * first].view(bool)


def _node_counts(
    tree: DecisionTree, table: Table, selection: np.ndarray | None
) -> np.ndarray:
    """Selected rows reaching each tree node (walk order).

    ``selection`` is a packed bitmap over the table's rows (``None``
    for every row), unpacked one partition at a time, so no mask of
    the whole table is ever held.  One selection pass over just the
    columns the tree splits on, which costs what the selection holds,
    not what the table holds: a partition without a selected row is not
    visited, a chunk without one is never read, and each chunk routes
    its selection segment into one counts array.  The pass runs under a
    ``store.count`` span saying what it read and what it skipped.
    """
    if selection is not None and selection.shape != (-(-table.n_rows // 8),):
        raise ValueError(
            f"selection bitmap of shape {selection.shape} does not cover "
            f"the {table.n_rows} rows of table {table.name!r}"
        )
    nodes = list(tree.root.walk())
    needed = tuple(sorted({n.column or "" for n in nodes if not n.is_leaf}))
    selected = (
        table.n_rows
        if selection is None
        else packed_count(selection)
    )
    if not needed:  # a single leaf: every selected row is in it
        return np.asarray([selected], dtype=np.int64)
    counts = np.zeros(len(nodes), dtype=np.int64)
    step = table.chunk_rows
    partitions = table.partitions
    with get_tracer().span("store.count") as span:
        live = chunks = 0
        with table.chunk_reader() as reader:
            for partition in partitions:
                start, stop = partition.start, partition.stop
                rows = (
                    np.ones(stop - start, dtype=bool)
                    if selection is None
                    else _selection_rows(selection, start, stop)
                )
                if not rows.any():
                    continue
                live += 1
                checkpoint("store.partition")
                for lo, hi, chunk in table.scan_chunks(
                    reader, needed, None, start, stop, rows
                ):
                    checkpoint("count.chunk")
                    counts += count_reaching(
                        tree.root, chunk, rows[lo - start : hi - start]
                    )
                    chunks += 1
        skipped = sum(-(-p.rows // step) for p in partitions) - chunks
        get_metrics().increment("blaeu_store_chunks_skipped_total", skipped)
        if span.enabled:
            span.set("rows_selected", selected)
            span.set("columns", len(needed))
            span.set("chunks", chunks)
            span.set("chunks_skipped", skipped)
            span.set("partitions", live)
            span.set("partitions_skipped", len(partitions) - live)
    return counts


def _approximate_regions(
    tree: DecisionTree,
    sample: Table,
    n_selection: int,
    leaf_silhouettes: dict[int, float],
    exemplars: dict[int, dict[str, object]],
) -> Region:
    """Region hierarchy with sample-extrapolated counts and 95% bounds.

    Each region's count is its sample share scaled to the selection; the
    error bound is the normal approximation of the binomial sampling
    error with a finite-population correction.  At the boundaries (a
    region the sample saw none — or all — of) the Wald term degenerates
    to a false certainty of 0, so the rule of three supplies the 95%
    bound instead.  The root's count is the selection size itself —
    exact, and therefore carrying no error bound at all.
    """
    m = sample.n_rows

    def counter(row_mask: np.ndarray) -> tuple[int, int | None]:
        in_sample = int(row_mask.sum())
        p = in_sample / m
        estimate = int(round(p * n_selection))
        correction = math.sqrt(max(n_selection - m, 0) / max(n_selection - 1, 1))
        if in_sample in (0, m):
            spread = 3.0 / m
        else:
            spread = _Z95 * math.sqrt(p * (1.0 - p) / m)
        return estimate, int(math.ceil(n_selection * spread * correction))

    root = _tree_to_regions(
        tree.root,
        m,
        _left_router(tree, sample),
        leaf_silhouettes,
        exemplars,
        row_mask=np.ones(m, dtype=bool),
        counter=counter,
    )
    root.n_rows = n_selection
    root.n_rows_error = None
    return root


def _exemplars(
    sample: Table,
    clustering,
    columns: tuple[str, ...],
) -> dict[int, dict[str, object]]:
    """Medoid tuple per cluster, restricted to the active columns."""
    out: dict[int, dict[str, object]] = {}
    for cluster in range(clustering.k):
        medoid_row = int(clustering.medoids[cluster])
        row = sample.row(medoid_row)
        out[cluster] = {name: row[name] for name in columns if name in row}
    return out


# ----------------------------------------------------------------------
# Tree → regions
# ----------------------------------------------------------------------


def _left_router(tree: DecisionTree, selection: Table):
    """A ``node -> goes-left mask`` function over an in-memory sample,
    evaluated lazily per node (the column arrays are already resident).
    Exact counts never build such masks: see :func:`_node_counts`."""
    return lambda node: _route_left(node, selection)


def _exact_counter(row_mask: np.ndarray) -> tuple[int, int | None]:
    return int(row_mask.sum()), None


def _tree_to_regions(
    node: TreeNode,
    n_rows: int,
    route_left,
    leaf_silhouettes: dict[int, float],
    exemplars: dict[int, dict[str, object]],
    region_id: str = "r",
    label: str = "all rows",
    path: tuple[Predicate, ...] = (),
    row_mask: np.ndarray | None = None,
    counter=_exact_counter,
) -> Region:
    """Recursively mirror the description tree as a region hierarchy.

    ``row_mask`` tracks which routed rows reach this node, so counts
    come from the actual tree routing (missing values follow the fitted
    majority branch) rather than from re-evaluating predicates, which
    would disagree on missing cells.  ``route_left`` supplies the
    per-node routing masks (see :func:`_left_router`); ``counter`` turns
    a mask into ``(n_rows, n_rows_error)`` — exact popcount by default,
    sample extrapolation on the approximate path.
    """
    if row_mask is None:
        row_mask = np.ones(n_rows, dtype=bool)
    predicate: Predicate = And.of(*path) if path else Everything()
    count, error = counter(row_mask)

    if node.is_leaf:
        cluster = node.prediction
        return Region(
            region_id=region_id,
            label=label,
            predicate=predicate,
            n_rows=count,
            depth=node.depth,
            cluster=cluster,
            silhouette=leaf_silhouettes.get(cluster),
            exemplar=exemplars.get(cluster, {}),
            n_rows_error=error,
        )

    assert node.left is not None and node.right is not None
    left_predicate, right_predicate = _split_predicates(node)
    left_label, right_label = _split_labels(node)
    goes_left = route_left(node)
    left_mask = row_mask & goes_left
    right_mask = row_mask & ~goes_left

    region = Region(
        region_id=region_id,
        label=label,
        predicate=predicate,
        n_rows=count,
        depth=node.depth,
        n_rows_error=error,
    )
    region.children = [
        _tree_to_regions(
            node.left,
            n_rows,
            route_left,
            leaf_silhouettes,
            exemplars,
            region_id=region_id + "0",
            label=left_label,
            path=path + (left_predicate,),
            row_mask=left_mask,
            counter=counter,
        ),
        _tree_to_regions(
            node.right,
            n_rows,
            route_left,
            leaf_silhouettes,
            exemplars,
            region_id=region_id + "1",
            label=right_label,
            path=path + (right_predicate,),
            row_mask=right_mask,
            counter=counter,
        ),
    ]
    return region


def _split_predicates(node: TreeNode) -> tuple[Predicate, Predicate]:
    """The (left, right) predicates of a split, missing-values included.

    The fitted tree routes missing cells along the node's majority branch;
    the predicates say so explicitly (``… OR x IS NULL``), so that the SQL
    a region displays selects *exactly* the tuples the region counts.
    """
    from repro.table.predicates import IsMissing, Or

    column = node.column or ""
    if node.threshold is not None:
        left: Predicate = Comparison(column, "<", node.threshold)
        right: Predicate = Comparison(column, ">=", node.threshold)
    else:
        category = node.category or ""
        left = Comparison(column, "==", category)
        right = Comparison(column, "!=", category)
    if node.missing_goes_left:
        left = Or((left, IsMissing(column)))
    else:
        right = Or((right, IsMissing(column)))
    return left, right


def _split_labels(node: TreeNode) -> tuple[str, str]:
    """Short display labels for the two branches (no IS NULL noise)."""
    column = node.column or ""
    if node.threshold is not None:
        return (
            f"{column} < {node.threshold:g}",
            f"{column} >= {node.threshold:g}",
        )
    return (
        f"{column} = '{node.category}'",
        f"{column} <> '{node.category}'",
    )


def _route_left(node: TreeNode, table: Table) -> np.ndarray:
    """Boolean mask of all table rows that follow the node's left branch."""
    from repro.tree.cart import _left_mask

    return _left_mask(node, table.column(node.column or ""))


def _selection_sql(selection: Predicate | None) -> str:
    return selection.to_sql() if selection is not None else Everything().to_sql()
