"""Service-level resilience: deadlines, shedding, degradation, drain."""

from __future__ import annotations

import asyncio
import http.client
import json
import threading
import time

import pytest

from repro.core.config import BlaeuConfig
from repro.core.engine import Blaeu
from repro.service.app import PoolConfig, ResilienceConfig, ServiceConfig
from synthetic import mixed_blobs


def _get(port: int, path: str, headers: dict[str, str] | None = None):
    """GET returning ``(status, headers, decoded body)``."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request("GET", path, headers=headers or {})
        response = connection.getresponse()
        body = response.read()
        return response.status, dict(response.getheaders()), body
    finally:
        connection.close()


def _get_json(port: int, path: str, headers: dict[str, str] | None = None):
    status, response_headers, body = _get(port, path, headers)
    return status, response_headers, json.loads(body)


def _engine() -> Blaeu:
    engine = Blaeu(BlaeuConfig(map_k_values=(2, 3), seed=5))
    engine.register(mixed_blobs(n_rows=300, k=2, seed=61).table)
    return engine


def _config(threads: int, max_pending: int, **groups) -> ServiceConfig:
    return ServiceConfig(
        port=0,
        pool=PoolConfig(threads=threads, max_pending=max_pending),
        **groups,
    )


class TestRequestDeadline:
    def test_spent_header_budget_is_a_structured_504(self, service_runner):
        running = service_runner(
            _engine(), _config(threads=2, max_pending=8)
        ).start()
        try:
            # A budget this small is gone before the request reaches the
            # pool: admission sheds it and the HTTP layer answers 504.
            status, _, payload = _get_json(
                running.port,
                "/v1/tables/mixed_blobs/map?k=2",
                headers={"X-Blaeu-Deadline": "0.000001"},
            )
            assert status == 504
            assert payload["ok"] is False
            assert payload["code"] == "deadline_exceeded"

            # ...and the failure is visible on /metrics.
            _, _, metrics = _get(running.port, "/metrics")
            text = metrics.decode()
            assert "blaeu_resilience_deadline_exceeded_total" in text
            assert "blaeu_resilience_pool_deadline_shed_total" in text
        finally:
            running.stop()

    def test_malformed_header_is_a_400(self, service_runner):
        running = service_runner(
            _engine(), _config(threads=2, max_pending=8)
        ).start()
        try:
            for bad in ("soon", "-1", "0"):
                status, _, payload = _get_json(
                    running.port,
                    "/v1/tables/mixed_blobs/map?k=2",
                    headers={"X-Blaeu-Deadline": bad},
                )
                assert status == 400, bad
                assert payload["ok"] is False
        finally:
            running.stop()

    def test_roomy_budget_answers_normally(self, service_runner):
        running = service_runner(
            _engine(), _config(threads=2, max_pending=8)
        ).start()
        try:
            status, _, payload = _get_json(
                running.port,
                "/v1/tables/mixed_blobs/map?k=2",
                headers={"X-Blaeu-Deadline": "60"},
            )
            assert status == 200
            assert payload["ok"] is True
            assert "degraded" not in payload
        finally:
            running.stop()


class TestDegradedMode:
    def test_short_budget_serves_approximate_counts(self, service_runner):
        # degrade_remaining is cranked above any realistic budget, so a
        # deadline-carrying request always takes the degraded path: a
        # fast approximate-count map instead of queueing an exact one.
        config = _config(
            threads=2,
            max_pending=8,
            resilience=ResilienceConfig(degrade_remaining=10_000.0),
        )
        running = service_runner(_engine(), config).start()
        try:
            status, _, payload = _get_json(
                running.port,
                "/v1/tables/mixed_blobs/map?k=2",
                headers={"X-Blaeu-Deadline": "60"},
            )
            assert status == 200
            assert payload["ok"] is True
            assert payload["degraded"] is True

            _, _, metrics = _get(running.port, "/metrics")
            assert "blaeu_resilience_degraded_total 1" in metrics.decode()
        finally:
            running.stop()

    def test_degradation_can_be_disabled(self, service_runner):
        config = _config(
            threads=2,
            max_pending=8,
            resilience=ResilienceConfig(
                degrade_when_busy=False, degrade_remaining=10_000.0
            ),
        )
        running = service_runner(_engine(), config).start()
        try:
            status, _, payload = _get_json(
                running.port,
                "/v1/tables/mixed_blobs/map?k=2",
                headers={"X-Blaeu-Deadline": "60"},
            )
            assert status == 200
            assert "degraded" not in payload
        finally:
            running.stop()


class TestLoadShedding:
    def test_saturated_pool_sheds_with_retry_after(self, service_runner):
        running = service_runner(
            _engine(), _config(threads=1, max_pending=1)
        ).start()
        try:
            # Deterministically occupy the single admission slot with a
            # job parked on an event, then knock on the front door.
            pool = running.service._pool
            release = threading.Event()
            future = asyncio.run_coroutine_threadsafe(
                pool.run(release.wait, 10.0), running._loop
            )
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and not pool.stats().in_flight:
                time.sleep(0.01)
            assert pool.stats().in_flight == 1

            status, headers, payload = _get_json(
                running.port, "/v1/tables/mixed_blobs/map?k=2"
            )
            assert status == 503
            assert payload == {
                "ok": False,
                "code": "pool_saturated",
                "error": "worker pool saturated (1 jobs in flight, limit 1)",
            }
            assert headers.get("Retry-After") == "1"
            # Commands shed through the same door, in the same shape.
            assert _get_json(running.port, "/v1/tables") == (
                status,
                headers,
                payload,
            )

            release.set()
            assert future.result(timeout=10) is True
        finally:
            running.stop()


class TestGracefulDrain:
    def test_stop_finishes_the_in_flight_request(self, service_runner):
        running = service_runner(
            _engine(), _config(threads=2, max_pending=8)
        ).start()
        try:
            results: list[tuple[int, dict]] = []

            def client():
                status, _, payload = _get_json(
                    running.port, "/v1/tables/mixed_blobs/map?k=3"
                )
                results.append((status, payload))

            thread = threading.Thread(target=client)
            thread.start()
            # Let the request reach the server before pulling the plug;
            # drain_timeout (default 5s) must let it finish.
            deadline = time.monotonic() + 5.0
            pool = running.service._pool
            while time.monotonic() < deadline and not pool.stats().in_flight:
                time.sleep(0.005)
        finally:
            running.stop()
        thread.join(timeout=15)
        assert results, "in-flight request was dropped during drain"
        status, payload = results[0]
        assert status == 200
        assert payload["ok"] is True


@pytest.mark.parametrize(
    "kwargs",
    [
        {"request_deadline": 0.0},
        {"max_deadline": -1.0},
        {"drain_timeout": -0.1},
        {"background_deadline": 0.0},
        {"breaker_failures": 0},
        {"breaker_recovery": 0.0},
    ],
)
def test_resilience_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        ResilienceConfig(**kwargs)
