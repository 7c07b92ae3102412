"""The telemetry contract of the two builders.

One fixed sequence of requests — a cold map build, the same request as a
map hit, a k-override that re-enters at Cluster, an approximate build
refined in place, an exact request that upgrades a cached approximate
map, a graph build, a graph hit, a second worker's map hit served from
the shared disk tier, and then a disk tier over its budget and a torn
entry on disk — must leave exactly these spans, access-log
notes and ``blaeu_pipeline_*`` / ``blaeu_graph_*`` / ``blaeu_cache_*`` /
``blaeu_artifact_cache_*`` counts.  Span durations, histogram sums and
gauges are timings and are not pinned; everything else a dashboard or
the ledger reads is.
"""

from __future__ import annotations

import pytest

from repro.core.config import BlaeuConfig
from repro.core.pipeline import MapBuilder
from repro.graph.dependency import GraphBuilder
from repro.obs.metrics import reset_metrics
from repro.obs.trace import Tracer, collect_notes, set_tracer
from repro.service.cache import LRUCache, TieredCache
from repro.store.artifacts import ArtifactCache, _key_hash
from repro.table.predicates import Comparison
from synthetic import mixed_blobs

#: The span families the builders write.
_BUILDER_SPANS = ("map.", "stage.", "graph.")

#: The metric families whose counts are pinned.
_FAMILIES = (
    "blaeu_pipeline_",
    "blaeu_graph_",
    "blaeu_cache_",
    "blaeu_artifact_cache_",
)

_STAGE_NAMES = ("sample", "preprocess", "distances", "cluster", "describe")


def _stages(hits: str) -> list[tuple[str, tuple[str, ...], bool]]:
    """The five cached stages' spans; ``hits`` marks each as h(it)/m(iss)."""
    return [
        ("stage." + name, ("cache_hit",), flag == "h")
        for name, flag in zip(_STAGE_NAMES, hits)
    ]


_COUNT = ("stage.count", ("mode",), None)
_MISS = ("map.build", ("cache_hit", "mode", "table"), False)
_HIT = ("map.build", ("cache_hit",), True)
_UPGRADE = ("map.upgrade", ("table",), None)

#: Per step: its builder spans in finish order, as (name, attribute
#: keys, ``cache_hit``), and the ``map_cache`` access-log note.
EXPECTED_STEPS = {
    "cold": ([*_stages("mmmmm"), _COUNT, _MISS], "miss"),
    "hit": ([_HIT], "hit"),
    "k_override": ([*_stages("hhhmm"), _COUNT, _MISS], "miss"),
    "approximate": ([*_stages("mmmmm"), _COUNT, _MISS], "miss"),
    "refine": ([_UPGRADE, ("map.refine", (), None)], None),
    "approximate_again": ([*_stages("mmmmm"), _COUNT, _MISS], "miss"),
    "exact_upgrade": ([_UPGRADE, _HIT], "hit"),
    "graph_build": (
        [
            ("graph.codes", (), None),
            ("graph.nmi", ("rows", "streaming"), None),
            ("graph.build", ("cache_hit", "measure", "n_columns"), False),
        ],
        None,
    ),
    "graph_hit": ([("graph.build", ("cache_hit",), True)], None),
    "other_worker": ([_HIT], "hit"),
    "evict": ([], None),
    "quarantine": ([], None),
}

#: Every pinned counter value and histogram count after the sequence.
EXPECTED_COUNTS = {
    "blaeu_artifact_cache_evictions_total": 1,
    "blaeu_artifact_cache_hits_total": 1,
    "blaeu_artifact_cache_misses_total": 22,
    "blaeu_artifact_cache_quarantined_total": 1,
    "blaeu_artifact_cache_writes_total": 24,
    "blaeu_cache_evictions_total": 0,
    'blaeu_cache_hits_total{tier="l1"}': 7,
    'blaeu_cache_hits_total{tier="l2"}': 1,
    'blaeu_cache_misses_total{tier="l1"}': 23,
    'blaeu_cache_misses_total{tier="l2"}': 22,
    "blaeu_cache_promotions_total": 1,
    "blaeu_graph_build_seconds_count": 1,
    "blaeu_graph_builds_total": 1,
    "blaeu_graph_cache_hits_total": 1,
    "blaeu_graph_cache_misses_total": 1,
    "blaeu_graph_code_cache_misses_total": 5,
    "blaeu_pipeline_build_seconds_count": 4,
    "blaeu_pipeline_builds_total": 4,
    "blaeu_pipeline_cluster_misses_total": 4,
    "blaeu_pipeline_count_misses_total": 4,
    "blaeu_pipeline_describe_misses_total": 4,
    "blaeu_pipeline_distances_hits_total": 1,
    "blaeu_pipeline_distances_misses_total": 3,
    "blaeu_pipeline_map_hits_total": 3,
    "blaeu_pipeline_map_misses_total": 4,
    "blaeu_pipeline_preprocess_hits_total": 1,
    "blaeu_pipeline_preprocess_misses_total": 3,
    "blaeu_pipeline_refinements_total": 2,
    "blaeu_pipeline_sample_hits_total": 1,
    "blaeu_pipeline_sample_misses_total": 3,
    "blaeu_pipeline_stage_seconds_cluster_count": 4,
    "blaeu_pipeline_stage_seconds_count_count": 4,
    "blaeu_pipeline_stage_seconds_describe_count": 4,
    "blaeu_pipeline_stage_seconds_distances_count": 3,
    "blaeu_pipeline_stage_seconds_preprocess_count": 3,
    "blaeu_pipeline_stage_seconds_sample_count": 3,
}


def _pinned_counts(metrics) -> dict[str, int]:
    """Counter values and histogram counts of :data:`_FAMILIES`."""
    counts: dict[str, int] = {}
    for line in metrics.render().splitlines():
        name, _, value = line.rpartition(" ")
        if not name.startswith(_FAMILIES) or "_bucket{" in name:
            continue
        if name.endswith("_sum"):
            continue
        counts[name] = int(value)
    return counts


@pytest.fixture
def traced():
    tracer = set_tracer(Tracer(enabled=True, buffer_size=4096))
    return tracer, reset_metrics()


def _read_torn(disk: ArtifactCache, value: object) -> object:
    """Write ``value``, tear its file in half, and read it back."""
    assert disk.put("torn", value)
    name = _key_hash("torn")
    path = disk.root / "objects" / name[:2] / f"{name}.art"
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    return disk.get("torn")


def _run_sequence(tmp_path):
    """Run the contract's requests; yield each step's name, result and
    ``map_cache`` note as it ends."""
    table = mixed_blobs(n_rows=1_200, k=3, seed=17).table
    columns = tuple(table.column_names)
    config = BlaeuConfig(map_k_values=(2, 3), map_sample_size=300, seed=5)
    cache = TieredCache(LRUCache(max_size=256), ArtifactCache(tmp_path / "l2"))
    maps = MapBuilder(result_cache=cache)
    graphs = GraphBuilder(result_cache=cache)
    other = MapBuilder(
        result_cache=TieredCache(LRUCache(max_size=256), cache.disk)
    )
    # A disk tier with room for nothing: each write evicts itself.
    cramped = ArtifactCache(tmp_path / "cramped", max_bytes=1)
    first = Comparison("x0", ">", 0.0)
    second = Comparison("x1", "<", 0.0)

    def build(**kwargs):
        return maps.build(table, columns, config=config, **kwargs)

    steps = [
        ("cold", lambda: build()),
        ("hit", lambda: build()),
        ("k_override", lambda: build(k=2)),
        (
            "approximate",
            lambda: build(selection=first, count_mode="approximate"),
        ),
        (
            "refine",
            lambda: maps.refine(table, columns, config=config, selection=first),
        ),
        (
            "approximate_again",
            lambda: build(selection=second, count_mode="approximate"),
        ),
        (
            "exact_upgrade",
            lambda: build(selection=second, count_mode="exact"),
        ),
        ("graph_build", lambda: graphs.build(table, sample=200)),
        ("graph_hit", lambda: graphs.build(table, sample=200)),
        # A second worker over the same disk tier: an L2 hit, promoted.
        ("other_worker", lambda: other.build(table, columns, config=config)),
        ("evict", lambda: cramped.put("k", table)),
        ("quarantine", lambda: _read_torn(cache.disk, table)),
    ]
    for name, request in steps:
        with collect_notes() as notes:
            result = request()
        yield name, result, notes.get("map_cache")


def test_the_builders_telemetry_is_pinned(traced, tmp_path):
    tracer, metrics = traced
    seen: dict[str, tuple[list, object]] = {}
    statuses: dict[str, str] = {}
    for name, result, map_note in _run_sequence(tmp_path):
        spans = [
            (
                span.name,
                tuple(sorted(span.attributes)),
                span.attributes.get("cache_hit"),
            )
            for span in tracer.spans()
            if span.name.startswith(_BUILDER_SPANS)
        ]
        tracer.reset()
        seen[name] = (spans, map_note)
        statuses[name] = getattr(result, "counts_status", None)
    assert seen == EXPECTED_STEPS
    assert statuses["approximate"] == statuses["approximate_again"]
    assert statuses["approximate"] == "approximate"
    assert statuses["refine"] == statuses["exact_upgrade"] == "exact"
    assert _pinned_counts(metrics) == EXPECTED_COUNTS
