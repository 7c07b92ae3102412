"""End-to-end tests of the HTTP service: routes, errors, concurrency."""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time

from scrape import scraped


class TestHealthAndMetrics:
    def test_healthz_reports_service_state(self, service):
        status, payload = service.get_json("/healthz")
        assert status == 200
        assert payload["ok"] is True
        assert payload["status"] == "healthy"
        assert payload["tables"] == 1
        assert "cache" in payload and "pool" in payload

    def test_healthz_keeps_its_shape_and_reads_the_l1_from_the_registry(
        self, service
    ):
        service.post(
            "/v1/commands/open",
            {"session": "health", "table": "mixed_blobs", "theme": 0},
        )
        service.post("/v1/commands/close", {"session": "health"})
        _, payload = service.get_json("/healthz")
        _, body = service.get("/metrics")
        text = body.decode()
        assert set(payload) == {
            "ok", "status", "uptime_seconds", "tables", "sessions", "pool", "cache"
        }
        assert set(payload["pool"]) == {"in_flight", "workers"}
        cache = payload["cache"]
        assert set(cache) == {"size", "hits", "misses", "hit_rate"}
        hits = scraped(text, "blaeu_cache_hits_total", tier="l1")
        misses = scraped(text, "blaeu_cache_misses_total", tier="l1")
        assert (cache["hits"], cache["misses"]) == (hits, misses)
        assert misses > 0
        assert cache["hit_rate"] == round(hits / (hits + misses), 4)
        assert cache["size"] == scraped(text, "blaeu_cache_entries") > 0

    def test_metrics_renders_prometheus_text(self, service):
        service.get_json("/healthz")  # guarantee at least one request
        status, body = service.get("/metrics")
        assert status == 200
        text = body.decode()
        assert "blaeu_requests_total" in text
        assert "blaeu_cache_entries" in text
        assert "blaeu_pool_in_flight" in text
        assert 'route="/healthz"' in text

    def test_trace_endpoint_reports_tracing_disabled_by_default(
        self, service
    ):
        status, payload = service.get_json("/v1/traces")
        assert status == 200
        assert payload["ok"] is True
        assert payload["enabled"] is False
        assert payload["traces"] == []


class TestCatalogRoutes:
    def test_tables_lists_registered_tables(self, service):
        status, payload = service.get_json("/v1/tables")
        assert status == 200
        assert payload["ok"] is True
        assert [r["name"] for r in payload["catalog"]] == ["mixed_blobs"]

    def test_catalog_carries_content_fingerprints(self, service):
        status, payload = service.get_json("/v1/tables")
        assert status == 200
        (record,) = payload["catalog"]
        assert record["name"] == "mixed_blobs"
        assert record["n_rows"] == 300
        assert len(record["fingerprint"]) == 64
        assert all(c in "0123456789abcdef" for c in record["fingerprint"])


class TestProtocolCommands:
    def test_full_navigation_roundtrip(self, service):
        status, opened = service.post(
            "/v1/commands/open",
            {"session": "nav", "table": "mixed_blobs", "theme": 0},
        )
        assert status == 200
        assert opened["session"] == "nav"
        assert opened["map"]["type"] == "blaeu.map"

        def leaves(node):
            children = node.get("children")
            if not children:
                return [node]
            return [leaf for child in children for leaf in leaves(child)]

        biggest = max(leaves(opened["map"]["root"]), key=lambda r: r["value"])
        status, zoomed = service.post(
            "/v1/commands/zoom", {"session": "nav", "region": biggest["id"]}
        )
        assert status == 200
        assert zoomed["map"]["n_rows"] == biggest["value"]

        status, sql = service.post("/v1/commands/sql", {"session": "nav"})
        assert status == 200
        assert sql["sql"].startswith("SELECT")

        status, history = service.post("/v1/commands/history", {"session": "nav"})
        assert status == 200
        assert len(history["history"]) == 2

        status, rolled = service.post("/v1/commands/rollback", {"session": "nav"})
        assert status == 200
        assert rolled["map"]["n_rows"] == 300

        status, closed = service.post("/v1/commands/close", {"session": "nav"})
        assert status == 200
        assert closed == {"ok": True, "closed": "nav"}

    def test_themes_command(self, service):
        status, payload = service.post(
            "/v1/commands/themes", {"table": "mixed_blobs"}
        )
        assert status == 200
        assert payload["themes"]["type"] == "blaeu.themes"

    def test_repeated_open_hits_shared_cache(self, service):
        _, before = service.get_json("/healthz")
        status, _ = service.post(
            "/v1/commands/open",
            {"session": "cache-a", "table": "mixed_blobs", "theme": 0},
        )
        assert status == 200
        status, _ = service.post(
            "/v1/commands/open",
            {"session": "cache-b", "table": "mixed_blobs", "theme": 0},
        )
        assert status == 200
        _, after = service.get_json("/healthz")
        assert after["cache"]["hits"] > before["cache"]["hits"]
        for session in ("cache-a", "cache-b"):
            service.post("/v1/commands/close", {"session": session})


class TestErrorPaths:
    def test_unknown_command_is_404(self, service):
        status, payload = service.post("/v1/commands/frobnicate", {})
        assert status == 404
        assert payload["ok"] is False
        assert "unknown command" in payload["error"]

    def test_missing_arguments_are_400(self, service):
        status, payload = service.post("/v1/commands/zoom", {"session": "s"})
        assert status == 400
        assert "region" in payload["error"]

    def test_missing_session_is_404(self, service):
        status, payload = service.post(
            "/v1/commands/zoom", {"session": "ghost", "region": "r0"}
        )
        assert status == 404
        assert "no session" in payload["error"]
        assert payload["command"] == "zoom"

    def test_missing_table_is_404(self, service):
        status, payload = service.post(
            "/v1/commands/themes", {"table": "nope"}
        )
        assert status == 404
        assert "no table" in payload["error"]

    def test_engine_rejection_is_400(self, service):
        service.post(
            "/v1/commands/open",
            {"session": "dup", "table": "mixed_blobs", "theme": 0},
        )
        status, payload = service.post(
            "/v1/commands/open",
            {"session": "dup", "table": "mixed_blobs", "theme": 0},
        )
        assert status == 400
        assert "already exists" in payload["error"]
        service.post("/v1/commands/close", {"session": "dup"})

    def test_malformed_json_body_is_400(self, service):
        status, payload = service.post("/v1/commands/tables", b"{not json")
        assert status == 400
        assert "malformed JSON" in payload["error"]

    def test_non_object_json_body_is_400(self, service):
        status, payload = service.post("/v1/commands/tables", b'["list"]')
        assert status == 400
        assert "object" in payload["error"]

    def test_get_on_api_route_is_405(self, service):
        status, payload = service.get_json("/v1/commands/tables")
        assert status == 405

    def test_unknown_route_is_404(self, service):
        status, payload = service.get_json("/nowhere")
        assert status == 404
        assert "no route" in payload["error"]

    def test_body_command_cannot_override_route(self, service):
        # A smuggled "command" in the body still runs `tables`.
        status, payload = service.post(
            "/v1/commands/tables", {"command": "close", "session": "nav"}
        )
        assert status == 200
        assert "tables" in payload

    def test_oversized_header_line_gets_413(self, service):
        with socket.create_connection(
            ("127.0.0.1", service.port), timeout=10
        ) as sock:
            sock.sendall(
                b"GET /healthz HTTP/1.1\r\nX-Huge: "
                + b"a" * (70 * 1024)
                + b"\r\n\r\n"
            )
            response = sock.recv(4096)
        assert b"413" in response.split(b"\r\n", 1)[0]

    def test_conflicting_framing_headers_get_400(self, service):
        # Content-Length + Transfer-Encoding together is a smuggling
        # vector; the server must refuse rather than pick one.
        with socket.create_connection(
            ("127.0.0.1", service.port), timeout=10
        ) as sock:
            sock.sendall(
                b"POST /v1/commands/tables HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: 4\r\nTransfer-Encoding: chunked\r\n\r\n"
                b"0\r\n\r\n"
            )
            response = sock.recv(4096)
        assert b"400" in response.split(b"\r\n", 1)[0]

    def test_huge_content_length_gets_413(self, service):
        with socket.create_connection(
            ("127.0.0.1", service.port), timeout=10
        ) as sock:
            sock.sendall(
                b"POST /v1/commands/tables HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: 999999999\r\n\r\n"
            )
            response = sock.recv(4096)
        assert b"413" in response.split(b"\r\n", 1)[0]

    def test_malformed_request_line_gets_400(self, service):
        with socket.create_connection(
            ("127.0.0.1", service.port), timeout=10
        ) as sock:
            sock.sendall(b"NOT A REQUEST\r\n\r\n")
            response = sock.recv(4096)
        assert b"400" in response.split(b"\r\n", 1)[0]


class TestConcurrency:
    def test_many_concurrent_clients_share_one_table(self, service):
        n_clients = 12
        errors: list[str] = []
        barrier = threading.Barrier(n_clients, timeout=30)

        def client(index: int) -> None:
            session = f"conc-{index}"
            try:
                barrier.wait()
                status, opened = service.post(
                    "/v1/commands/open",
                    {"session": session, "table": "mixed_blobs", "theme": 0},
                )
                if status != 200:
                    errors.append(f"open {status}: {opened}")
                    return
                status, _ = service.post("/v1/commands/map", {"session": session})
                if status != 200:
                    errors.append(f"map {status}")
                status, _ = service.post("/v1/commands/close", {"session": session})
                if status != 200:
                    errors.append(f"close {status}")
            except Exception as error:  # pragma: no cover
                errors.append(repr(error))

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(n_clients)
        ]
        for thread in threads:
            thread.start()
        probes: list[tuple[int, float]] = []
        while any(thread.is_alive() for thread in threads):
            started = time.perf_counter()
            status, _ = service.get("/healthz")
            probes.append((status, time.perf_counter() - started))
            time.sleep(0.01)
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        # No event-loop stall: the pool took the work, so a liveness probe
        # sent while the clients were busy was answered at once (a bound
        # on responsiveness, not a performance number).
        assert probes
        assert all(status == 200 and seconds < 1.0 for status, seconds in probes)
        # All sessions were closed again.
        status, payload = service.get_json("/healthz")
        assert status == 200

    def test_keep_alive_serves_many_requests_per_connection(self, service):
        connection = http.client.HTTPConnection(
            "127.0.0.1", service.port, timeout=30
        )
        try:
            for _ in range(5):
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                assert response.status == 200
                body = json.loads(response.read())
                assert body["ok"] is True
        finally:
            connection.close()
