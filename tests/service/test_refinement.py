"""Service-level tests for approximate-first maps and structured errors.

With ``count_mode="approximate"`` a map-returning command must answer
immediately with sample-extrapolated counts — the proof is the
``counts_status="approximate"`` payload itself, which can only be
observed before the exact routing pass has patched the session — and
the exact pass then runs through the service worker pool in the
background, upgrading ``/v1/commands/map`` reads to ``counts_status="exact"``.

Also here: the map pipeline's client-fixable :class:`MapBuildError`s
surface as *structured* 400s (machine-readable ``code``), not opaque
engine errors.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.core.config import BlaeuConfig
from repro.core.engine import Blaeu
from repro.core.navigation import Explorer
from repro.core.pipeline import MapBuildError, MapBuilder
from repro.server.protocol import parse_request, validate_request
from repro.server.session import SessionManager
from repro.service.app import BlaeuService, PoolConfig, ServiceConfig
from repro.service.cache import LRUCache
from repro.viz.export import export_map_json
from synthetic import mixed_blobs

APPROX_CONFIG = BlaeuConfig(
    map_k_values=(2, 3),
    map_sample_size=200,
    seed=5,
    count_mode="approximate",
)


def _poll_exact(service, session, timeout=20.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, payload = service.post("/v1/commands/map", {"session": session})
        assert status == 200
        if payload["counts_status"] == "exact":
            return payload
        time.sleep(0.05)
    raise AssertionError("refinement did not complete in time")


class TestApproximateFirstResponses:
    def test_open_returns_before_the_exact_pass_completes(
        self, approx_service
    ):
        status, opened = approx_service.post(
            "/v1/commands/open",
            {"session": "ap1", "table": "mixed_blobs", "theme": 0},
        )
        assert status == 200
        # The response carries approximate counts — i.e. it was produced
        # before the exact routing pass over the full selection ran.
        assert opened["counts_status"] == "approximate"
        assert opened["refining"] is True
        assert opened["map"]["counts_status"] == "approximate"

        def regions(node):
            yield node
            for child in node.get("children", ()):
                yield from regions(child)

        assert any(
            "n_rows_error" in region
            for region in regions(opened["map"]["root"])
        )

        refined = _poll_exact(approx_service, "ap1")
        assert refined["map"]["counts_status"] == "exact"
        assert refined["map"]["n_rows"] == 2_500
        assert all(
            "n_rows_error" not in region
            for region in regions(refined["map"]["root"])
        )

    def test_refined_counts_partition_the_selection(self, approx_service):
        approx_service.post(
            "/v1/commands/open",
            {"session": "ap2", "table": "mixed_blobs", "theme": 0},
        )
        refined = _poll_exact(approx_service, "ap2")

        def leaves(node):
            children = node.get("children")
            if not children:
                return [node]
            return [leaf for child in children for leaf in leaves(child)]

        total = sum(leaf["value"] for leaf in leaves(refined["map"]["root"]))
        assert total == 2_500

    def test_the_shell_and_the_server_show_the_same_map(self, approx_service):
        """A cache-less engine in this process (what ``blaeu explore``
        builds) maps the table exactly as the service, which always
        installs a cache, served it."""
        status, payload = approx_service.get_json("/v1/tables/mixed_blobs/map")
        assert status == 200
        served = approx_service.service.engine
        library = Blaeu(served.config)
        library.register(served.database.table("mixed_blobs"))
        assert library.map_cache is None
        theme_zero = library.themes("mixed_blobs")[0].columns
        # Another session may already have refined the cached map.
        mapped = library.map(
            "mixed_blobs", theme_zero, count_mode=payload["map"]["counts_status"]
        )
        assert payload["map"] == json.loads(json.dumps(mapped.to_dict()))

    def test_metrics_expose_pipeline_counters(self, approx_service):
        approx_service.post(
            "/v1/commands/open",
            {"session": "ap3", "table": "mixed_blobs", "theme": 0},
        )
        _poll_exact(approx_service, "ap3")
        status, body = approx_service.get("/metrics")
        assert status == 200
        text = body.decode()
        assert "blaeu_pipeline_builds_total" in text
        assert "blaeu_pipeline_refinements_total" in text
        assert "blaeu_pipeline_sample_misses_total" in text
        assert "blaeu_pipeline_last_build_seconds" in text


class TestRefinedMapsServeTheirOwnText:
    """A map's export text is kept with the map; refinement makes a new
    map, so no response after a session moved to exact counts may carry
    the approximate map's kept text."""

    def test_a_refined_session_serves_the_blocking_exact_builds_text(self):
        table = mixed_blobs(n_rows=900, k=3, seed=61).table
        engine = Blaeu(APPROX_CONFIG)
        engine.set_map_cache(LRUCache(max_size=16))  # as the service does
        engine.register(table)
        manager = SessionManager(engine)

        def send(command, **args):
            response = manager.handle(
                validate_request({"command": command, "session": "s", **args})
            )
            assert response.ok, response
            return response

        opened = send("open", table="mixed_blobs", theme=0)
        approximate_map = manager.peek("s").state.map
        approximate = opened.payload["map"]
        assert opened.counts_status == "approximate"
        assert json.loads(approximate)["counts_status"] == "approximate"
        assert approximate == export_map_json(approximate_map)

        assert manager.refine_session("s")
        exact = export_map_json(
            MapBuilder().build(
                table,
                approximate_map.columns,
                config=APPROX_CONFIG,
                count_mode="exact",
            )
        )
        assert json.loads(exact)["counts_status"] == "exact"
        leaves = [r for r in approximate_map.leaves() if r.n_rows >= 40]
        served = [send("map")]
        send("zoom", region=leaves[0].region_id)
        served += [send("rollback"), send("map")]
        for response in served:
            assert response.payload["map"] == exact
            assert response.counts_status == "exact"
        wire = json.loads(
            manager.handle_json('{"command": "map", "session": "s"}')
        )
        assert wire["map"] == json.loads(exact)

    def test_no_response_after_the_exact_one_is_approximate(
        self, approx_service
    ):
        approx_service.post(
            "/v1/commands/open",
            {"session": "ap5", "table": "mixed_blobs", "theme": 0},
        )
        refined = _poll_exact(approx_service, "ap5")
        served = approx_service.service.engine
        exact = MapBuilder().build(
            served.database.table("mixed_blobs"),
            tuple(refined["map"]["columns"]),
            config=served.config,
            count_mode="exact",
        )
        expected = json.loads(export_map_json(exact))
        assert refined["map"] == expected
        for _ in range(3):
            status, payload = approx_service.post(
                "/v1/commands/map", {"session": "ap5"}
            )
            assert status == 200
            assert payload["counts_status"] == "exact"
            assert payload["map"] == expected


class TestStructuredMapBuildErrors:
    def _manager(self):
        engine = Blaeu(BlaeuConfig(map_k_values=(2, 3), seed=5))
        engine.register(mixed_blobs(n_rows=200, k=2, seed=61).table)
        return SessionManager(engine)

    def _open(self, manager, session="s1"):
        response = manager.handle(
            parse_request(
                json.dumps(
                    {
                        "command": "open",
                        "session": session,
                        "table": "mixed_blobs",
                        "theme": 0,
                    }
                )
            )
        )
        assert response.ok
        return response

    @pytest.mark.parametrize(
        "message",
        [
            "build_map needs at least one active column",
            "selection has 0 rows; nothing to cluster",
        ],
    )
    def test_both_pipeline_errors_carry_a_code(
        self, monkeypatch, message
    ):
        manager = self._manager()
        self._open(manager)

        def raise_build_error(*args, **kwargs):
            raise MapBuildError(message)

        monkeypatch.setattr(Explorer, "zoom", raise_build_error)
        response = manager.handle(
            parse_request(
                json.dumps({"command": "zoom", "session": "s1", "region": "r0"})
            )
        )
        assert not response.ok
        assert response.code == "map_build_invalid"
        assert response.error == message
        assert json.loads(response.to_json())["code"] == "map_build_invalid"

    def test_http_maps_the_code_to_a_structured_400(self, monkeypatch):
        """End to end through the HTTP app: 400 + machine-readable code."""
        import asyncio

        engine = Blaeu(BlaeuConfig(map_k_values=(2, 3), seed=5))
        engine.register(mixed_blobs(n_rows=200, k=2, seed=61).table)
        service = BlaeuService(
            engine,
            ServiceConfig(port=0, pool=PoolConfig(threads=1, max_pending=8)),
        )

        def raise_build_error(*args, **kwargs):
            raise MapBuildError("build_map needs at least one active column")

        monkeypatch.setattr(Explorer, "open_theme", raise_build_error)

        from repro.service.http import HttpRequest

        request = HttpRequest(
            method="POST",
            path="/v1/commands/open",
            query={},
            headers={},
            body=json.dumps(
                {"session": "x", "table": "mixed_blobs", "theme": 0}
            ).encode(),
        )

        async def run():
            try:
                return await service._route(request)
            finally:
                service.pool.shutdown(wait=True)

        response = asyncio.run(run())
        assert response.status == 400
        payload = json.loads(response.body)
        assert payload["ok"] is False
        assert payload["code"] == "map_build_invalid"
        assert "active column" in payload["error"]

    def test_plain_engine_errors_still_lack_a_code(self):
        """Non-pipeline errors keep the old shape (no code field)."""
        manager = self._manager()
        response = manager.handle(
            parse_request(
                json.dumps({"command": "zoom", "session": "nope", "region": "r"})
            )
        )
        assert not response.ok
        assert response.code is None
        assert "code" not in json.loads(response.to_json())


class TestNumpyRngEquivalence:
    def test_session_mode_refine_matches_service_exact(self):
        """An explorer without any cache refines to the same exact map a
        blocking exact build produces."""
        table = mixed_blobs(n_rows=900, k=3, seed=61).table
        explorer = Explorer(table, config=APPROX_CONFIG)
        explorer.open_theme(0)
        refined = explorer.refine()

        direct = MapBuilder().build(
            table,
            refined.columns,
            config=APPROX_CONFIG,
            count_mode="exact",
        )
        assert export_map_json(refined) == export_map_json(direct)
