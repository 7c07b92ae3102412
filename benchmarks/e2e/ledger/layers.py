"""Per-layer numbers read from outside: ``/metrics`` deltas around the
timed phases, summed over every server generation of a run."""

from __future__ import annotations

import http.client
import re

_SERIES = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)$")

STAGES = ("sample", "preprocess", "distances", "cluster", "describe", "count")


def scrape(port: int) -> dict[str, float]:
    """``GET /metrics`` as ``{series-with-labels: value}``."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request("GET", "/metrics")
        response = connection.getresponse()
        text = response.read().decode("utf-8", errors="replace")
    finally:
        connection.close()
    series: dict[str, float] = {}
    for line in text.splitlines():
        match = _SERIES.match(line.strip())
        if match and not line.startswith("#"):
            try:
                series[match.group(1) + (match.group(2) or "")] = float(match.group(3))
            except ValueError:
                continue
    return series


class Counters:
    """Accumulated ``after − before`` deltas of every scraped series."""

    def __init__(self) -> None:
        self.total: dict[str, float] = {}

    def add(self, before: dict[str, float], after: dict[str, float]) -> None:
        for key, value in after.items():
            delta = value - before.get(key, 0.0)
            if delta:
                self.total[key] = self.total.get(key, 0.0) + delta

    def get(self, name: str) -> float:
        """One unlabeled series."""
        return self.total.get(name, 0.0)

    def labeled(self, name: str, fragment: str = "") -> float:
        """Sum of ``name{…}`` series whose label set contains ``fragment``."""
        prefix = name + "{"
        return sum(
            value
            for key, value in self.total.items()
            if key.startswith(prefix) and fragment in key
        )

    def request_seconds(self) -> tuple[float, float]:
        """(sum, count) of server-side request time, probes excluded."""
        total = count = 0.0
        for key, value in self.total.items():
            if "/healthz" in key or "/metrics" in key or "/v1/workers" in key:
                continue
            if key.startswith("blaeu_request_seconds_sum{"):
                total += value
            elif key.startswith("blaeu_request_seconds_count{"):
                count += value
        return total, count


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def derive(
    counters: Counters, n_actions: int, client_seconds: float
) -> dict[str, float]:
    """The ``/metrics``-derived per-layer metrics of the timed phases.

    ``n_actions`` and ``client_seconds`` are the client's count and summed
    time-to-last-byte of the same phases.
    """
    get = counters.get
    out: dict[str, float] = {}

    server_seconds, server_count = counters.request_seconds()
    out["http.overhead_ms"] = 1000.0 * (
        _ratio(client_seconds, n_actions) - _ratio(server_seconds, server_count)
    )
    out["pool.completed"] = get("blaeu_pool_completed_total")
    out["pool.rejected"] = get("blaeu_pool_rejected_total")
    out["app.degraded"] = get("blaeu_resilience_degraded_total")

    l1_hits = counters.labeled("blaeu_cache_hits_total", 'tier="l1"') + get(
        "blaeu_cache_hits_total"
    )
    l2_hits = counters.labeled("blaeu_cache_hits_total", 'tier="l2"')
    l1_misses = counters.labeled("blaeu_cache_misses_total", 'tier="l1"') + get(
        "blaeu_cache_misses_total"
    )
    l2_misses = counters.labeled("blaeu_cache_misses_total", 'tier="l2"')
    out["cache.l1_hit_share"] = _ratio(l1_hits, l1_hits + l1_misses)
    out["cache.l2_hit_share"] = _ratio(l2_hits, l2_hits + l2_misses)

    hits = misses = 0.0
    for stage in STAGES:
        computed = get(f"blaeu_pipeline_stage_seconds_{stage}_count")
        out[f"pipeline.{stage}_ms"] = 1000.0 * _ratio(
            get(f"blaeu_pipeline_stage_seconds_{stage}_sum"), computed
        )
        hits += get(f"blaeu_pipeline_{stage}_hits_total")
        misses += get(f"blaeu_pipeline_{stage}_misses_total")
    out["pipeline.builds"] = get("blaeu_pipeline_builds_total")
    out["pipeline.stage_hit_share"] = _ratio(hits, hits + misses)

    scan_seconds = get("blaeu_store_scan_seconds_sum")
    out["store.scan_s_per_action"] = _ratio(scan_seconds, n_actions)
    out["store.chunk_reads_per_action"] = _ratio(
        get("blaeu_store_chunk_reads_total"), n_actions
    )
    skipped = get("blaeu_store_partitions_skipped_total")
    scanned = get("blaeu_store_partitions_scanned_total")
    out["store.prune_fraction"] = _ratio(skipped, skipped + scanned)

    # Scans inside a build are already in the build's time.  At most the
    # sample and count stages' time can be scan time, so what remains is
    # a lower bound on scan time outside builds — and the share below an
    # upper bound on what no counter explains.
    inside = get("blaeu_pipeline_stage_seconds_sample_sum") + get(
        "blaeu_pipeline_stage_seconds_count_sum"
    )
    attributed = (
        get("blaeu_pipeline_build_seconds_sum")
        + get("blaeu_graph_build_seconds_sum")
        + max(0.0, scan_seconds - inside)
    )
    out["layers.unattributed_share"] = max(
        0.0, 1.0 - _ratio(attributed, server_seconds)
    )
    return out
