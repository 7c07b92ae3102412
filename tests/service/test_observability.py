"""End-to-end observability: traces, trace headers, access log, refine.

The traced service here mirrors the plain ``service`` fixture but with
tracing and the access log switched on.  Tests that need a *cold* map
build run first (a warm cache skips the stage spans on purpose), and
the store-backed refinement test builds its own service last — its
construction installs a fresh global tracer, which would steal the
deep-layer spans from the module fixture's requests.
"""

from __future__ import annotations

import http.client
import json
import time

import pytest

from repro.core.config import BlaeuConfig
from repro.core.engine import Blaeu
from repro.service.app import PoolConfig, ServiceConfig, TraceConfig
from synthetic import mixed_blobs


def _request(running, method, path, body=None):
    """One HTTP exchange returning (status, headers, body bytes).

    Follows one 307 hop so legacy spellings keep exercising the /v1
    handlers (a 307 preserves method and body by definition).
    """
    payload = json.dumps(body).encode() if body is not None else None
    for _ in range(2):
        connection = http.client.HTTPConnection(
            "127.0.0.1", running.port, timeout=60
        )
        try:
            connection.request(method, path, body=payload)
            response = connection.getresponse()
            location = response.getheader("Location")
            if response.status == 307 and location:
                response.read()
                path = location
                continue
            return (
                response.status,
                dict(response.getheaders()),
                response.read(),
            )
        finally:
            connection.close()
    raise RuntimeError(f"redirect loop at {path!r}")


def _find_trace(running, trace_id, timeout=10.0, require=()):
    """Poll /v1/traces until ``trace_id`` shows up with the required spans."""
    deadline = time.monotonic() + timeout
    match = None
    while time.monotonic() < deadline:
        _, _, data = _request(running, "GET", "/v1/traces?limit=50")
        traces = json.loads(data)["traces"]
        match = next(
            (t for t in traces if t["trace_id"] == trace_id), match
        )
        if match is not None:
            names = {span["name"] for span in match["spans"]}
            if set(require) <= names:
                return match
        time.sleep(0.05)
    return match


@pytest.fixture(scope="module")
def traced_service(service_runner):
    engine = Blaeu(BlaeuConfig(map_k_values=(2, 3), seed=5))
    engine.register(mixed_blobs(n_rows=300, k=2, seed=61).table)
    running = service_runner(
        engine,
        ServiceConfig(
            port=0,
            pool=PoolConfig(threads=2, max_pending=32),
            trace=TraceConfig(
                enabled=True, buffer_size=4096, access_log=True
            ),
        ),
    ).start()
    lines: list[str] = []
    running.service.access_log_sink = lines.append
    running.log_lines = lines
    yield running
    running.stop()


class TestTracedRequests:
    def test_cold_build_yields_one_trace_tree_per_request(
        self, traced_service
    ):
        started = time.perf_counter()
        status, headers, body = _request(
            traced_service,
            "POST",
            "/v1/commands/open",
            {"session": "t1", "table": "mixed_blobs", "theme": 0},
        )
        wall = time.perf_counter() - started
        assert status == 200
        trace_id = headers["X-Blaeu-Trace"]
        assert len(trace_id) == 16

        trace = _find_trace(
            traced_service, trace_id, require={"http.request", "map.build"}
        )
        assert trace is not None, "trace never appeared at /v1/traces"
        spans = trace["spans"]
        names = {span["name"] for span in spans}
        # The request span, the pipeline build, and the cold stages —
        # all under ONE trace despite running on pool worker threads.
        assert "http.request" in names
        assert "map.build" in names
        assert "stage.sample" in names
        assert "stage.cluster" in names
        assert "kselect.candidate" in names
        assert all(span["trace_id"] == trace_id for span in spans)

        # Everything parents back inside the tree (no orphans).
        span_ids = {span["span_id"] for span in spans}
        roots = [s for s in spans if s["parent_id"] is None]
        assert [s["name"] for s in roots] == ["http.request"]
        assert all(
            span["parent_id"] in span_ids
            for span in spans
            if span["parent_id"] is not None
        )

        # The request's own span fits inside the client's wall-clock and
        # covers the build it caused (both offsets are the server's
        # monotonic clock; the client's clock is not comparable).
        root = roots[0]
        assert root["duration"] <= wall
        assert root["attributes"]["route"] == "/v1/commands/open"
        assert root["attributes"]["status"] == 200

        build = next(s for s in spans if s["name"] == "map.build")
        assert build["attributes"]["cache_hit"] is False
        assert root["offset"] <= build["offset"]
        assert (
            build["offset"] + build["duration"]
            <= root["offset"] + root["duration"]
        )

    def test_warm_build_marks_the_cache_hit(self, traced_service):
        status, headers, _ = _request(
            traced_service,
            "POST",
            "/v1/commands/open",
            {"session": "t2", "table": "mixed_blobs", "theme": 0},
        )
        assert status == 200
        trace = _find_trace(
            traced_service,
            headers["X-Blaeu-Trace"],
            require={"map.build"},
        )
        build = next(
            s for s in trace["spans"] if s["name"] == "map.build"
        )
        assert build["attributes"]["cache_hit"] is True

    def test_every_response_carries_the_trace_header(self, traced_service):
        status, headers, _ = _request(traced_service, "GET", "/healthz")
        assert status == 200
        first = headers["X-Blaeu-Trace"]
        status, headers, _ = _request(traced_service, "GET", "/healthz")
        second = headers["X-Blaeu-Trace"]
        assert first != second  # one trace per request

    def test_trace_endpoint_validates_limit(self, traced_service):
        status, _, body = _request(traced_service, "GET", "/v1/traces?limit=x")
        assert status == 400
        status, _, body = _request(traced_service, "GET", "/v1/traces?limit=0")
        assert status == 400
        status, _, body = _request(traced_service, "GET", "/v1/traces?limit=2")
        assert status == 200
        payload = json.loads(body)
        assert payload["enabled"] is True
        assert len(payload["traces"]) <= 2

    def test_access_log_lines_are_structured(self, traced_service):
        _request(traced_service, "GET", "/healthz")
        lines = traced_service.log_lines
        healthz = [
            line
            for line in lines
            if "route=/healthz" in line and line.startswith("access ")
        ]
        assert healthz, f"no /healthz access line in {lines!r}"
        line = healthz[-1]
        assert "method=GET" in line
        assert "status=200" in line
        assert "duration_ms=" in line
        assert "trace=" in line
        # The cold open earlier (shimmed to /v1) noted its
        # map-cache outcome.
        opens = [x for x in lines if "route=/v1/commands/open" in x]
        assert any("map_cache=miss" in x for x in opens)
        assert any("map_cache=hit" in x for x in opens)

    def test_metrics_show_stage_histograms_and_store_counters(
        self, traced_service
    ):
        _, _, body = _request(traced_service, "GET", "/metrics")
        text = body.decode()
        # Unified registry: pipeline counters/histograms arrive without
        # any push-into-the-service plumbing.
        assert "blaeu_pipeline_builds_total" in text
        assert "blaeu_pipeline_build_seconds_bucket" in text
        assert "blaeu_pipeline_stage_seconds_cluster_bucket" in text


class TestRefinementTracing:
    def test_refine_span_joins_the_originating_requests_trace(
        self, tmp_path_factory, service_runner
    ):
        from repro.store import write_store

        config = BlaeuConfig(
            map_k_values=(2, 3),
            map_sample_size=200,
            seed=5,
            count_mode="approximate",
        )
        table = mixed_blobs(n_rows=2_500, k=3, seed=61).table
        root = tmp_path_factory.mktemp("traced_store") / "s"
        write_store(table, root, chunk_rows=256)
        engine = Blaeu(config)
        engine.load_store(root)
        running = service_runner(
            engine,
            ServiceConfig(
                port=0,
                pool=PoolConfig(threads=2, max_pending=32),
                trace=TraceConfig(enabled=True, buffer_size=8192),
            ),
        ).start()
        try:
            status, headers, body = _request(
                running,
                "POST",
                "/v1/commands/open",
                {"session": "r1", "table": "mixed_blobs", "theme": 0},
            )
            assert status == 200
            assert json.loads(body)["counts_status"] == "approximate"
            trace_id = headers["X-Blaeu-Trace"]
            trace = _find_trace(
                running, trace_id, timeout=30.0, require={"refine.session"}
            )
            assert trace is not None
            names = {span["name"] for span in trace["spans"]}
            # The background exact-count pass joined the trace of the
            # navigation that scheduled it.
            assert "refine.session" in names
            assert "http.request" in names
            # Store-backed builds leave storage spans in the same tree.
            assert any(name.startswith("store.") for name in names)
        finally:
            running.stop()
