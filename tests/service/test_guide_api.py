"""Service-level tests for guided exploration: the suggestions resource,
the ``suggest`` protocol command, and speculative prefetch end to end."""

from __future__ import annotations

import time

import pytest

from repro.core.config import BlaeuConfig
from repro.core.engine import Blaeu
from repro.obs.metrics import get_metrics
from repro.service.app import GuideConfig, PoolConfig, ServiceConfig
from scrape import scraped
from synthetic import mixed_blobs


def fresh_engine():
    engine = Blaeu(BlaeuConfig(map_k_values=(2, 3), seed=5))
    engine.register(mixed_blobs(n_rows=300, k=2, seed=61).table)
    return engine


class TestSuggestionsResource:
    def test_initial_suggestions_without_state(self, service):
        status, payload = service.get_json("/v1/tables/mixed_blobs/suggestions")
        assert status == 200
        assert payload["ok"] is True
        suggestions = payload["suggestions"]
        assert suggestions
        assert all(s["action"] == "open_theme" for s in suggestions)
        assert all(
            set(s) == {"action", "target", "score", "reason"}
            for s in suggestions
        )

    def test_state_suggestions_for_a_theme(self, service):
        status, payload = service.get_json(
            "/v1/tables/mixed_blobs/suggestions?theme=0"
        )
        assert status == 200
        actions = {s["action"] for s in payload["suggestions"]}
        assert actions & {"zoom", "project", "recluster"}

    def test_limit_bounds_the_list(self, service):
        status, payload = service.get_json(
            "/v1/tables/mixed_blobs/suggestions?limit=1"
        )
        assert status == 200
        assert len(payload["suggestions"]) == 1

    def test_bad_limit_is_400(self, service):
        status, payload = service.get_json(
            "/v1/tables/mixed_blobs/suggestions?limit=zero"
        )
        assert status == 400
        assert payload["code"] == "bad_request"

    def test_unknown_theme_is_404(self, service):
        status, payload = service.get_json(
            "/v1/tables/mixed_blobs/suggestions?theme=zzz"
        )
        assert status == 404
        assert payload["code"] == "not_found"

    def test_unknown_table_is_404(self, service):
        status, payload = service.get_json("/v1/tables/ghost/suggestions")
        assert status == 404

    def test_deterministic_across_requests(self, service):
        # Between the calls the cache warms up (the first call builds
        # the theme's map) — the ranking must not notice.
        first = service.get_json("/v1/tables/mixed_blobs/suggestions?theme=0")
        second = service.get_json("/v1/tables/mixed_blobs/suggestions?theme=0")
        assert first == second


class TestSuggestCommand:
    def test_suggest_on_an_open_session(self, service):
        status, opened = service.post(
            "/v1/commands/open",
            {"session": "guide-s1", "table": "mixed_blobs", "theme": 0},
        )
        assert status == 200
        status, payload = service.post(
            "/v1/commands/suggest", {"session": "guide-s1", "limit": 3}
        )
        assert status == 200
        assert payload["session"] == "guide-s1"
        assert 1 <= len(payload["suggestions"]) <= 3
        service.post("/v1/commands/close", {"session": "guide-s1"})

    def test_suggest_without_session_is_an_error(self, service):
        status, payload = service.post(
            "/v1/commands/suggest", {"session": "ghost"}
        )
        assert status == 404

    def test_bad_limit_rejected(self, service):
        service.post(
            "/v1/commands/open",
            {"session": "guide-s2", "table": "mixed_blobs", "theme": 0},
        )
        status, payload = service.post(
            "/v1/commands/suggest", {"session": "guide-s2", "limit": 0}
        )
        assert status == 400
        service.post("/v1/commands/close", {"session": "guide-s2"})


class TestDeterminismAcrossWorkerCounts:
    def test_same_ranking_for_one_and_four_threads(self, service_runner):
        payloads = []
        for threads in (1, 4):
            running = service_runner(
                fresh_engine(),
                ServiceConfig(
                    port=0, pool=PoolConfig(threads=threads, max_pending=32)
                ),
            ).start()
            try:
                status, payload = running.get_json(
                    "/v1/tables/mixed_blobs/suggestions?theme=0"
                )
                assert status == 200
                payloads.append(payload["suggestions"])
            finally:
                running.stop()
        assert payloads[0] == payloads[1]


class TestSpeculativePrefetch:
    @pytest.fixture()
    def prefetching(self, service_runner):
        running = service_runner(
            fresh_engine(),
            ServiceConfig(
                port=0,
                pool=PoolConfig(threads=2, max_pending=32),
                guide=GuideConfig(top_n=2, prefetch=True, prefetch_jobs=1),
            ),
        ).start()
        yield running
        running.stop()

    def _wait_for_completed(self, running, minimum, timeout=10.0):
        """The ``/metrics`` text once the prefetcher has completed
        ``minimum`` builds and has none in flight."""
        deadline = time.monotonic() + timeout
        while True:
            _, body = running.get("/metrics")
            text = body.decode()
            completed = scraped(text, "blaeu_guide_prefetch_completed_total")
            in_flight = scraped(text, "blaeu_guide_prefetch_in_flight")
            if completed >= minimum and in_flight == 0:
                return text
            if time.monotonic() >= deadline:
                raise AssertionError(
                    f"prefetcher never completed {minimum} builds:\n{text}"
                )
            time.sleep(0.05)

    def test_map_request_triggers_table_speculation(self, prefetching):
        status, _ = prefetching.get_json("/v1/tables/mixed_blobs/map?theme=0")
        assert status == 200
        text = self._wait_for_completed(prefetching, minimum=1)
        assert scraped(text, "blaeu_guide_prefetch_errors_total") == 0

    def test_speculation_warms_the_shared_cache(self, prefetching):
        status, payload = prefetching.get_json(
            "/v1/tables/mixed_blobs/map?theme=0"
        )
        assert status == 200
        self._wait_for_completed(prefetching, minimum=1)

        # The top suggestion for that state is a zoom; replaying it via
        # a session must hit the cache the speculation just warmed.
        _, suggested = prefetching.get_json(
            "/v1/tables/mixed_blobs/suggestions?theme=0&limit=1"
        )
        top = suggested["suggestions"][0]
        assert top["action"] == "zoom"

        hits = "blaeu_pipeline_map_hits_total"
        before = get_metrics().counter(hits)
        prefetching.post(
            "/v1/commands/open",
            {"session": "warm-s1", "table": "mixed_blobs", "theme": 0},
        )
        status, _ = prefetching.post(
            "/v1/commands/zoom",
            {"session": "warm-s1", "region": top["target"]},
        )
        assert status == 200
        assert get_metrics().counter(hits) > before
        prefetching.post("/v1/commands/close", {"session": "warm-s1"})

    def test_session_commands_trigger_session_speculation(self, prefetching):
        prefetching.post(
            "/v1/commands/open",
            {"session": "spec-s1", "table": "mixed_blobs", "theme": 0},
        )
        text = self._wait_for_completed(prefetching, minimum=1)
        assert scraped(text, "blaeu_guide_prefetch_scheduled_total") >= 1
        prefetching.post("/v1/commands/close", {"session": "spec-s1"})

    def test_metrics_expose_guide_counters(self, prefetching):
        prefetching.get_json("/v1/tables/mixed_blobs/map?theme=0")
        self._wait_for_completed(prefetching, minimum=1)
        status, body = prefetching.get("/metrics")
        assert status == 200
        text = body.decode()
        assert "blaeu_guide_prefetch_scheduled_total" in text
        assert "blaeu_guide_prefetch_completed_total" in text
        assert "blaeu_guide_prefetch_in_flight" in text

    def test_prefetch_off_by_default(self, service):
        status, body = service.get("/metrics")
        assert status == 200
        assert "blaeu_guide_prefetch_in_flight" not in body.decode()
