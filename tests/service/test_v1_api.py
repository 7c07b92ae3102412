"""The versioned /v1 surface: resources, codes, config, exports.

``test_http_service.py`` exercises the command plane end to end; this
file pins the *contract* of the redesign — resource routes, structured
error codes, ServiceConfig's layered precedence, and the curated import
surface.  (``test_routes.py`` drives every row of the route table.)
"""

from __future__ import annotations

import http.client
import json
import warnings

import pytest

from repro.service.app import (
    CacheConfig,
    PoolConfig,
    ServiceConfig,
    TraceConfig,
)
from repro.service.config import resolve


def _raw(service, method, path, body=None):
    """One exchange: (status, headers, dict)."""
    payload = json.dumps(body).encode() if body is not None else None
    connection = http.client.HTTPConnection(
        "127.0.0.1", service.port, timeout=30
    )
    try:
        connection.request(method, path, body=payload)
        response = connection.getresponse()
        raw = response.read()
        parsed = json.loads(raw) if raw else {}
        return response.status, dict(response.getheaders()), parsed
    finally:
        connection.close()


class TestResourceRoutes:
    def test_map_resource_by_name(self, service):
        status, payload = service.get_json("/v1/tables/mixed_blobs/map")
        assert status == 200
        assert payload["ok"] is True
        assert payload["table"] == "mixed_blobs"
        assert payload["map"]["n_rows"] == 300

    def test_map_resource_by_fingerprint(self, service):
        _, catalog = service.get_json("/v1/tables")
        fingerprint = catalog["catalog"][0]["fingerprint"]
        by_name = service.get_json("/v1/tables/mixed_blobs/map")[1]
        by_print = service.get_json(f"/v1/tables/{fingerprint}/map")[1]
        # Same content identity → the same map, bit for bit.
        assert by_print["map"] == by_name["map"]

    def test_graph_resource_answers(self, service):
        status, payload = service.get_json("/v1/tables/mixed_blobs/graph")
        assert status == 200
        assert payload["ok"] is True

    def test_themes_resource_answers(self, service):
        status, payload = service.get_json("/v1/tables/mixed_blobs/themes")
        assert status == 200
        assert payload["themes"]

    def test_unknown_table_reference_is_404_not_found(self, service):
        status, _, payload = _raw(service, "GET", "/v1/tables/ghost/map")
        assert status == 404
        assert payload["code"] == "not_found"

    def test_unknown_subresource_is_404_unknown_route(self, service):
        status, _, payload = _raw(service, "GET", "/v1/tables/x/nope")
        assert status == 404
        assert payload["code"] == "unknown_route"

    def test_post_on_a_resource_is_405_with_code(self, service):
        status, _, payload = _raw(
            service, "POST", "/v1/tables/mixed_blobs/map", {}
        )
        assert status == 405
        assert payload["code"] == "method_not_allowed"

    def test_unknown_theme_is_404(self, service):
        status, _, payload = _raw(
            service, "GET", "/v1/tables/mixed_blobs/map?theme=zzz"
        )
        assert status == 404
        assert payload["code"] == "not_found"


class TestErrorCodes:
    def test_unknown_command_code(self, service):
        status, _, payload = _raw(service, "POST", "/v1/commands/nope", {})
        assert status == 404
        assert payload["code"] == "unknown_command"

    def test_unknown_route_code(self, service):
        status, _, payload = _raw(service, "GET", "/nowhere")
        assert status == 404
        assert payload["code"] == "unknown_route"

    def test_bad_request_code(self, service):
        status, _, payload = _raw(service, "POST", "/v1/commands/open", {})
        assert status == 400
        assert payload["code"] == "bad_request"

    def test_missing_session_code(self, service):
        status, _, payload = _raw(
            service, "POST", "/v1/commands/zoom", {"session": "ghost", "region": "r0"}
        )
        assert status == 404
        assert payload["code"] == "not_found"


class TestServiceConfigLayers:
    def test_defaults(self):
        config = resolve({}, environ={})
        assert config == ServiceConfig()
        assert config.cache == CacheConfig()
        assert config.trace == TraceConfig()
        assert config.pool == PoolConfig()

    def test_env_overrides_defaults(self):
        config = resolve(
            {},
            environ={
                "BLAEU_CACHE_SIZE": "99",
                "BLAEU_TRACE": "yes",
                "BLAEU_THREADS": "7",
                "BLAEU_WORKERS": "3",
            },
        )
        assert config.cache.size == 99
        assert config.trace.enabled is True
        assert config.pool.threads == 7
        assert config.pool.processes == 3

    def test_the_process_environment_is_the_default_source(self, monkeypatch):
        monkeypatch.setenv("BLAEU_CACHE_SIZE", "99")
        assert resolve().cache.size == 99

    def test_nested_group_overrides_everything(self, monkeypatch):
        # Constructing a config reads nothing but its arguments: the
        # environment is resolve()'s business.
        monkeypatch.setenv("BLAEU_CACHE_SIZE", "99")
        assert ServiceConfig(cache=CacheConfig(size=5)).cache.size == 5
        assert ServiceConfig().cache.size == 256

    def test_malformed_env_fails_loudly(self):
        with pytest.raises(ValueError, match="BLAEU_CACHE_SIZE"):
            resolve({}, environ={"BLAEU_CACHE_SIZE": "many"})

    def test_validation_still_bites(self):
        with pytest.raises(ValueError):
            CacheConfig(size=0)
        with pytest.raises(ValueError):
            PoolConfig(threads=4, max_pending=1)
        with pytest.raises(ValueError):
            TraceConfig(buffer_size=0)


class TestCuratedImports:
    def test_top_level_names(self):
        import repro

        for name in (
            "Blaeu",
            "Explorer",
            "Database",
            "build_map",
            "ExplorationConfig",
        ):
            assert name in repro.__all__
            assert getattr(repro, name) is not None

    def test_exploration_config_is_the_engine_config(self):
        from repro import ExplorationConfig
        from repro.core.config import BlaeuConfig

        assert ExplorationConfig is BlaeuConfig

    def test_serving_surface_lives_in_its_submodules(self):
        import importlib

        import repro.service

        homes = {
            "BlaeuService": "repro.service.app",
            "ServiceConfig": "repro.service.config",
            "ResilienceConfig": "repro.service.config",
            "SessionManager": "repro.server.session",
            "Session": "repro.server.session",
            "TieredCache": "repro.service.cache",
            "HashRing": "repro.service.routing",
            "Supervisor": "repro.service.supervisor",
            "parse_request": "repro.server.protocol",
        }
        for name, home in homes.items():
            assert getattr(importlib.import_module(home), name) is not None
            # The package re-exports nothing: importing it (as the
            # supervisor does) must not drag the engine in.
            assert name not in vars(repro.service)

    def test_server_submodules_stay_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            from repro.server.session import SessionManager  # noqa: F401
