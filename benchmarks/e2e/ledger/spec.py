"""Names, units and sizes: the one place the ledger's vocabulary lives.

``BENCHMARK.json`` at the repository root repeats the workload and
metric names below (a test keeps the two equal); everything else in the
harness looks names up here instead of spelling them again.
"""

from __future__ import annotations

from dataclasses import dataclass

WORKLOADS = ("explore_cold", "revisit_warm", "fleet_rewarm", "onboard_csv")

#: End-to-end metrics: (name, unit, better).  Every workload reports all
#: of them, from an untraced run.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("action_p50_ms", "ms", "lower"),
    ("actions_per_s", "1/s", "higher"),
    ("first_map_s", "s", "lower"),
    ("rss_peak_mb", "MB", "lower"),
)

#: Per-layer metrics: (name, unit, better).  Every workload reports all
#: of them from a traced run; a layer that idles in a workload reads 0.
PER_LAYER = (
    # client
    ("client.action_p90_ms", "ms", "lower"),
    ("client.open_p50_ms", "ms", "lower"),
    ("client.zoom_p50_ms", "ms", "lower"),
    ("client.project_p50_ms", "ms", "lower"),
    ("client.highlight_p50_ms", "ms", "lower"),
    ("client.themes_p50_ms", "ms", "lower"),
    ("client.response_bytes_p50", "B", "lower"),
    ("client.first_visit_share", "ratio", "higher"),
    # service.http / service.pool / service.app
    ("http.overhead_ms", "ms", "lower"),
    ("http.healthz_rtt_ms", "ms", "lower"),
    ("pool.completed", "count", "higher"),
    ("pool.rejected", "count", "lower"),
    ("app.degraded", "count", "lower"),
    # service.supervisor / service.routing
    ("supervisor.proxy_hop_ms", "ms", "lower"),
    ("supervisor.restart_s", "s", "lower"),
    ("fleet.fill_actions_per_s", "1/s", "higher"),
    # service.cache / store.artifacts / store.codec
    ("cache.l1_hit_share", "ratio", "higher"),
    ("cache.l2_hit_share", "ratio", "higher"),
    ("artifacts.get_ms", "ms", "lower"),
    ("artifacts.put_ms", "ms", "lower"),
    ("codec.encode_ms", "ms", "lower"),
    ("codec.decode_ms", "ms", "lower"),
    ("codec.artifact_bytes", "B", "lower"),
    # core.pipeline / cluster / tree
    ("pipeline.sample_ms", "ms", "lower"),
    ("pipeline.preprocess_ms", "ms", "lower"),
    ("pipeline.distances_ms", "ms", "lower"),
    ("pipeline.cluster_ms", "ms", "lower"),
    ("pipeline.describe_ms", "ms", "lower"),
    ("pipeline.count_ms", "ms", "lower"),
    ("pipeline.builds", "count", "lower"),
    ("pipeline.stage_hit_share", "ratio", "higher"),
    ("cluster.clara_ms", "ms", "lower"),
    ("cluster.select_k_ms", "ms", "lower"),
    ("tree.fit_ms", "ms", "lower"),
    # store.stored / store.partitions / store.parallel
    ("store.scan_s_per_action", "s", "lower"),
    ("store.chunk_reads_per_action", "count", "lower"),
    ("store.prune_fraction", "ratio", "higher"),
    ("store.scan_mask_ms", "ms", "lower"),
    ("store.topk_sample_ms", "ms", "lower"),
    ("store.take_ms", "ms", "lower"),
    # graph / stats
    ("graph.themes_cold_ms", "ms", "lower"),
    ("graph.open_no_themes_ms", "ms", "lower"),
    # store.ingest / table.csv_io
    ("ingest.cli_rows_per_s", "1/s", "higher"),
    ("ingest.parse_rows_per_s", "1/s", "higher"),
    ("ingest.inproc_rows_per_s", "1/s", "higher"),
    ("ingest.append_rows_per_s", "1/s", "higher"),
    ("store.write_store_s", "s", "lower"),
    # server.session / viz / guide / obs
    ("session.handle_warm_us", "us", "lower"),
    ("viz.export_map_json_us", "us", "lower"),
    ("guide.suggest_ms", "ms", "lower"),
    ("obs.trace_overhead_share", "ratio", "lower"),
    ("layers.unattributed_share", "ratio", "lower"),
    # the harness itself
    ("harness.datagen_s", "s", "lower"),
    ("host.slowdown", "ratio", "lower"),
)

#: The phase of each workload whose actions feed the end-to-end latency
#: and throughput; everything else (fills, set-ups, extra boots) is
#: warm-up or its own metric.
TIMED_PHASE = {
    "explore_cold": "walk",
    "revisit_warm": "replay",
    "fleet_rewarm": "rewarm",
    "onboard_csv": "walk",
}

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}

#: The seed whose map digests are checked in (``golden_digests.json``).
DEFAULT_SEED = 2016

#: What ``ledger.client.speed_kernel`` takes on the recording host when
#: nothing competes for the core.  Timings are reported at this speed.
KERNEL_REFERENCE_S = 0.002


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one profile (``full`` is what gets recorded)."""

    profile: str
    explore_rows: int
    revisit_rows: int
    fleet_rows: int
    fleet_tables: int
    onboard_rows: int
    append_rows: int
    partitions: int
    #: Exploration paths per pass of the walk plan (8 actions each on the
    #: cold workloads, 9 on the warm ones).
    explore_paths: int
    revisit_paths: int
    fleet_paths_per_table: int
    onboard_paths: int
    probe_repeats: int
    #: Set-ups per run (``setup_s`` is their median) and the fewest timed
    #: rounds a run makes however slow the host.
    setup_reps: int
    min_rounds: int


FULL = Sizes(
    profile="full",
    explore_rows=1_000_000,
    revisit_rows=400_000,
    fleet_rows=250_000,
    fleet_tables=4,
    onboard_rows=100_000,
    append_rows=5_000,
    partitions=16,
    explore_paths=6,
    revisit_paths=6,
    fleet_paths_per_table=2,
    onboard_paths=6,
    probe_repeats=3,
    setup_reps=3,
    min_rounds=3,
)

#: The ``--quick`` profile: a smoke size for tests, never recorded.
QUICK = Sizes(
    profile="quick",
    explore_rows=20_000,
    revisit_rows=20_000,
    fleet_rows=20_000,
    fleet_tables=2,
    onboard_rows=5_000,
    append_rows=500,
    partitions=4,
    explore_paths=3,
    revisit_paths=3,
    fleet_paths_per_table=2,
    onboard_paths=2,
    probe_repeats=1,
    setup_reps=1,
    min_rounds=2,
)
