"""The route table, driven row by row through worker and proxy.

Parametrized over :data:`repro.service.routes.ROUTES`, so a route added
to the table is exercised — right verb, wrong verb, metric label, proxy
placement, README row — without touching this file.  The labels and the
error bodies below were recorded from the commit before the table
existed: the table must reproduce the hand-written dispatch, byte for
byte.
"""

from __future__ import annotations

import asyncio
import json
import re
import tempfile
from pathlib import Path
from urllib.parse import parse_qs

import pytest

from repro.server.protocol import COMMANDS
from repro.service.config import (
    CacheConfig,
    PoolConfig,
    ServiceConfig,
    worker_env,
)
from repro.service.http import HttpRequest
from repro.service.routes import ROUTES, match, unknown_label
from repro.service.supervisor import Supervisor
from scrape import scraped

ROOT = Path(__file__).resolve().parents[2]

#: What fills a template's parameters when a test drives the row.
PARAMS = {"table": "mixed_blobs", "command": "tables", "slot": "0"}

#: ``route`` metric labels as the hand-written dispatch recorded them.
PARENT_LABELS = {
    "/healthz": "/healthz",
    "/metrics": "/metrics",
    "/v1/tables": "/v1/tables",
    "/v1/traces": "/v1/traces",
    "/v1/tables/{table}/map": "/v1/tables/<table>/map",
    "/v1/tables/{table}/graph": "/v1/tables/<table>/graph",
    "/v1/tables/{table}/themes": "/v1/tables/<table>/themes",
    "/v1/tables/{table}/suggestions": "/v1/tables/<table>/suggestions",
    "/v1/commands/{command}": "/v1/commands/tables",
}

SERVED = [route for route in ROUTES if route.tier != "fleet"]
FLEET_ONLY = [route for route in ROUTES if route.tier == "fleet"]


def ids(rows):
    return [route.template for route in rows]


def exchange(service, method, path, body=None, headers=None):
    status, raw = service.exchange(method, path, body, headers)
    return status, raw.decode("utf-8")


def recorded_under(service, label, method, path):
    """Drive one request; was it counted under ``label``?"""
    metrics = service.service.metrics
    before = scraped(metrics, "blaeu_requests_total", route=label)
    status, body = exchange(
        service, method, path, body=b"{}" if method == "POST" else None
    )
    return status, body, scraped(metrics, "blaeu_requests_total", route=label) - before


class TestTheTable:
    def test_every_parent_route_has_a_row(self):
        assert {route.template for route in SERVED} == set(PARENT_LABELS)
        assert {route.template for route in FLEET_ONLY} == {
            "/v1/workers",
            "/v1/workers/{slot}/restart",
        }

    @pytest.mark.parametrize("route", ROUTES, ids=ids(ROUTES))
    def test_a_row_matches_its_own_template(self, route):
        path = route.template.format(**PARAMS)
        for spelling in (path, path + "/"):
            found, params = match(spelling)
            assert found is route
            assert params == {
                name: PARAMS[name]
                for name in re.findall(r"\{(\w+)\}", route.template)
            }

    @pytest.mark.parametrize(
        "path",
        ["/", "/v1", "/v1/commands", "/v1/tables/t", "/v1/tables/t/map/x"],
    )
    def test_near_misses_match_nothing(self, path):
        assert match(path) == (None, {})


class TestWorkerAnswersEveryRow:
    @pytest.mark.parametrize("route", SERVED, ids=ids(SERVED))
    def test_its_method_under_the_parent_label(self, service, route):
        status, body, counted = recorded_under(
            service,
            PARENT_LABELS[route.template],
            route.method or "GET",
            route.template.format(**PARAMS),
        )
        assert status == 200, body
        assert counted == 1

    @pytest.mark.parametrize(
        "route",
        [route for route in SERVED if route.method],
        ids=ids(route for route in SERVED if route.method),
    )
    def test_the_other_method_is_a_405(self, service, route):
        other = "POST" if route.method == "GET" else "GET"
        status, body, counted = recorded_under(
            service,
            PARENT_LABELS[route.template],
            other,
            route.template.format(**PARAMS),
        )
        assert status == 405
        assert json.loads(body) == {
            "ok": False,
            "code": "method_not_allowed",
            "error": f"use {route.method} for this resource",
        }
        assert counted == 1

    @pytest.mark.parametrize(
        "route",
        [route for route in SERVED if not route.method],
        ids=ids(route for route in SERVED if not route.method),
    )
    def test_probes_answer_any_verb(self, service, route):
        status, _, counted = recorded_under(
            service, PARENT_LABELS[route.template], "POST", route.template
        )
        assert (status, counted) == (200, 1)

    @pytest.mark.parametrize("route", FLEET_ONLY, ids=ids(FLEET_ONLY))
    def test_a_single_process_has_no_fleet_routes(self, service, route):
        status, body, counted = recorded_under(
            service,
            "/<unknown>",
            route.method or "GET",
            route.template.format(**PARAMS),
        )
        assert status == 404
        assert json.loads(body)["code"] == "unknown_route"
        assert counted == 1

    @pytest.mark.parametrize(
        ("method", "path", "status", "label"),
        [
            ("GET", "/nowhere", 404, "/<unknown>"),
            ("GET", "/v1/tables/mixed_blobs/nope", 404, "/v1/tables/<unknown>"),
            ("GET", "/v1/tables/mixed_blobs", 404, "/v1/tables/<unknown>"),
            ("POST", "/v1/commands/nope", 404, "/v1/commands/<unknown>"),
            # Quotes and backslashes of a hostile path never reach a
            # label: the exposition escapes nothing it did not write.
            ("GET", '/v1/tables/a"b\\c/nope', 404, "/v1/tables/<unknown>"),
            # A request its route refuses is counted with the route's
            # other statuses, not once per spelling of the path.
            ("GET", "/v1/tables/mixed_blobs/map?k=bad", 400, "/v1/tables/<table>/map"),
            ("GET", "/v1/tables/mixed_blobs/map/?k=bad", 400, "/v1/tables/<table>/map"),
        ],
    )
    def test_unknown_labels_stay_bounded(self, service, method, path, status, label):
        answered, _, counted = recorded_under(service, label, method, path)
        assert (answered, counted) == (status, 1)
        if status == 404 and not path.startswith("/v1/commands/"):
            assert unknown_label(path) == label
        _, exposition = exchange(service, "GET", "/metrics")
        assert not re.search(r'route="[^"]*mixed_blobs', exposition)

    @pytest.mark.parametrize(
        ("method", "path"),
        [
            ("GET", "/tables"),
            ("GET", "/catalog"),
            ("GET", "/trace"),
            ("GET", "/trace?limit=3"),
            ("POST", "/api/open"),
        ],
    )
    def test_the_pre_v1_spellings_are_gone(self, service, method, path):
        status, body, counted = recorded_under(service, "/<unknown>", method, path)
        assert status == 404
        assert json.loads(body) == {
            "ok": False,
            "code": "unknown_route",
            "error": f"no route {path.split('?')[0]!r}",
        }
        assert counted == 1


def theme_index_refused(command, index):
    """A theme *index* the table lacks is refused like an unknown theme
    *name* — the commit before answered 99 and -5 with a 500 and -1 with
    the last theme."""
    body = json.dumps({"session": "idx", "table": "mixed_blobs", "theme": index})
    return (
        ("POST", f"/v1/commands/{command}", body.encode(), {}),
        (
            404,
            f'{{"code": "not_found", "command": "{command}", "error": '
            f'"\'no theme {index}; the table has 3\'", "ok": false}}',
        ),
    )


#: (method, target, body, headers) → (status, body bytes), as the commit
#: before the route table answered them.
PARENT_ERRORS = [
    (
        ("GET", "/nowhere", None, {}),
        (404, '{"code": "unknown_route", "error": "no route \'/nowhere\'", "ok": false}'),
    ),
    (
        ("GET", "/v1/workers", None, {}),
        (
            404,
            '{"code": "unknown_route", "error": "no route \'/v1/workers\'", '
            '"ok": false}',
        ),
    ),
    (
        ("GET", "/v1/tables/ghost/map", None, {}),
        (404, '{"code": "not_found", "error": "no table \'ghost\'", "ok": false}'),
    ),
    (
        ("GET", "/v1/tables/mixed_blobs/nope", None, {}),
        (
            404,
            '{"code": "unknown_route", "error": '
            '"no route \'/v1/tables/mixed_blobs/nope\'", "ok": false}',
        ),
    ),
    (
        ("GET", "/v1/tables/mixed_blobs/map?theme=zzz", None, {}),
        (
            404,
            '{"code": "not_found", "error": '
            '"no theme \'zzz\' on table \'mixed_blobs\'", "ok": false}',
        ),
    ),
    (
        ("GET", "/v1/tables/mixed_blobs/map?theme=9", None, {}),
        (
            404,
            '{"code": "not_found", "error": '
            '"no theme 9 on table \'mixed_blobs\'", "ok": false}',
        ),
    ),
    (
        ("GET", "/v1/tables/mixed_blobs/map?k=abc", None, {}),
        (
            400,
            '{"code": "bad_request", "error": '
            '"k must be an integer, got \'abc\'", "ok": false}',
        ),
    ),
    (
        ("GET", "/v1/tables/mixed_blobs/map?columns=,", None, {}),
        (
            400,
            '{"code": "bad_request", "error": '
            '"columns must name at least one column", "ok": false}',
        ),
    ),
    (
        ("GET", "/v1/tables/mixed_blobs/suggestions?theme=zzz", None, {}),
        (
            404,
            '{"code": "not_found", "error": '
            '"no theme \'zzz\' on table \'mixed_blobs\'", "ok": false}',
        ),
    ),
    (
        ("GET", "/v1/tables/mixed_blobs/suggestions?limit=x", None, {}),
        (
            400,
            '{"code": "bad_request", "error": '
            '"limit must be an integer, got \'x\'", "ok": false}',
        ),
    ),
    (
        ("GET", "/v1/tables/mixed_blobs/suggestions?limit=0", None, {}),
        (
            400,
            '{"code": "bad_request", "error": "limit must be at least 1", '
            '"ok": false}',
        ),
    ),
    (
        ("GET", "/v1/traces?limit=x", None, {}),
        (
            400,
            '{"code": "bad_request", "error": '
            '"limit must be an integer, got \'x\'", "ok": false}',
        ),
    ),
    (
        ("GET", "/v1/traces?limit=0", None, {}),
        (
            400,
            '{"code": "bad_request", "error": "limit must be at least 1", '
            '"ok": false}',
        ),
    ),
    (
        ("POST", "/v1/commands/nope", b"{}", {}),
        (
            404,
            '{"code": "unknown_command", "error": "unknown command \'nope\'; '
            f'known: {sorted(COMMANDS)}", "ok": false}}',
        ),
    ),
    (
        ("POST", "/v1/commands/open", b"{}", {}),
        (
            400,
            '{"code": "bad_request", "error": "command \'open\' is missing '
            "arguments: ['session', 'table', 'theme']\", \"ok\": false}",
        ),
    ),
    *(theme_index_refused("open", index) for index in (99, -5, -1)),
    (
        ("POST", "/v1/commands/open", b'["list"]', {}),
        (
            400,
            '{"code": "bad_request", "error": "JSON body must be an object", '
            '"ok": false}',
        ),
    ),
    (
        ("POST", "/v1/commands/themes", b'{"table": "nope"}', {}),
        (
            404,
            '{"code": "not_found", "command": "themes", "error": '
            '"\\"no table \'nope\' in catalog; available: '
            '[\'mixed_blobs\']\\"", "ok": false}',
        ),
    ),
    (
        ("GET", "/v1/tables/mixed_blobs/map", None, {"X-Blaeu-Deadline": "soon"}),
        (
            400,
            '{"code": "bad_request", "error": '
            '"X-Blaeu-Deadline must be seconds, got \'soon\'", "ok": false}',
        ),
    ),
    (
        ("GET", "/v1/tables/mixed_blobs/map", None, {"X-Blaeu-Deadline": "0"}),
        (
            400,
            '{"code": "bad_request", "error": '
            '"X-Blaeu-Deadline must be positive", "ok": false}',
        ),
    ),
]


class TestOneErrorShape:
    @pytest.mark.parametrize(
        ("request_", "expected"),
        PARENT_ERRORS,
        ids=[f"{r[0]} {r[1]} {r[3] or r[2] or ''}".strip() for r, _ in PARENT_ERRORS],
    )
    def test_error_bodies_are_the_parents_bytes(self, service, request_, expected):
        method, target, body, headers = request_
        status, text = exchange(service, method, target, body, headers)
        assert (status, text) == expected
        allowed = {"ok", "error", "code"}
        if target.startswith("/v1/commands/") and "command" in json.loads(text):
            allowed.add("command")
        assert set(json.loads(text)) == allowed

    @pytest.mark.parametrize("index", [99, -5, -1])
    def test_project_refuses_a_theme_index_like_open(self, service, index):
        opened = {"session": "idx", "table": "mixed_blobs", "theme": 0}
        assert service.post("/v1/commands/open", opened)[0] == 200
        try:
            request_, expected = theme_index_refused("project", index)
            assert exchange(service, *request_) == expected
        finally:
            service.post("/v1/commands/close", {"session": "idx"})


@pytest.fixture(scope="module")
def supervisor(tmp_path_factory):
    """A supervisor that is never started: routing needs no workers."""
    scratch = tmp_path_factory.mktemp("fleet")
    config = ServiceConfig(
        pool=PoolConfig(processes=3),
        cache=CacheConfig(dir=str(scratch / "cache")),
    )
    return Supervisor(config, ["--demo", "hollywood"])


def test_port_files_directory_lives_from_start_to_stop(tmp_path, monkeypatch):
    """A supervisor that never starts makes no directory; one that
    starts puts every port file in one, and stopping removes it."""
    config = ServiceConfig(
        port=0, pool=PoolConfig(processes=2), cache=CacheConfig(dir=str(tmp_path))
    )
    supervisor = Supervisor(config, ["--demo", "hollywood"])
    assert supervisor._state_dir is None

    async def announced(worker):
        worker.port = 1

    # No worker processes: the lifecycle around them is what is checked.
    monkeypatch.setattr(supervisor, "_spawn", lambda worker: None)
    monkeypatch.setattr(supervisor, "_await_port", announced)

    async def main():
        await supervisor.start()
        state = supervisor._state_dir
        assert state.is_dir()
        assert {worker.port_file.parent for worker in supervisor.workers} == {state}
        await supervisor.stop()
        return state

    assert not asyncio.run(main()).exists()
    assert supervisor._state_dir is None


def test_a_cache_less_fleet_removes_the_cache_directory_it_made(
    tmp_path, monkeypatch
):
    """A fleet configured without a cache directory shares one the
    supervisor makes on start and removes on stop; a start/stop cycle
    leaves no ``blaeu-cache-*`` directory behind."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    config = ServiceConfig(port=0, pool=PoolConfig(processes=2))
    assert config.cache.dir is None
    supervisor = Supervisor(config, ["--demo", "hollywood"])
    assert list(tmp_path.glob("blaeu-cache-*")) == []

    async def announced(worker):
        worker.port = 1

    monkeypatch.setattr(supervisor, "_spawn", lambda worker: None)
    monkeypatch.setattr(supervisor, "_await_port", announced)

    async def main():
        await supervisor.start()
        made = list(tmp_path.glob("blaeu-cache-*"))
        # Every worker would boot over the one directory made.
        assert [Path(supervisor._config.cache.dir)] == made
        assert worker_env(supervisor._config, {})["BLAEU_CACHE_DIR"] == str(
            made[0]
        )
        await supervisor.stop()

    asyncio.run(main())
    assert list(tmp_path.glob("blaeu-cache-*")) == []
    assert supervisor._config.cache.dir is None


def test_a_configured_cache_directory_outlives_the_fleet(tmp_path, monkeypatch):
    """Only a directory the supervisor made is removed."""
    cache = tmp_path / "cache"
    cache.mkdir()
    config = ServiceConfig(
        port=0, pool=PoolConfig(processes=2), cache=CacheConfig(dir=str(cache))
    )
    supervisor = Supervisor(config, ["--demo", "hollywood"])

    async def announced(worker):
        worker.port = 1

    monkeypatch.setattr(supervisor, "_spawn", lambda worker: None)
    monkeypatch.setattr(supervisor, "_await_port", announced)

    async def main():
        await supervisor.start()
        await supervisor.stop()

    asyncio.run(main())
    assert cache.is_dir()
    assert supervisor._config.cache.dir == str(cache)


def request(method, target, body=b""):
    return HttpRequest(method, target, query={}, headers={}, body=body)


class TestProxyPlacesByTheSameTable:
    @pytest.mark.parametrize(
        "route",
        [route for route in ROUTES if route.key == ("table",)],
        ids=ids(route for route in ROUTES if route.key == ("table",)),
    )
    def test_table_resources_place_by_the_path_parameter(self, supervisor, route):
        path = route.template.format(table="abc123")
        slots = supervisor._slots_for(request("GET", path), *match(path))
        assert slots == supervisor.ring.owners("table:abc123", 2)

    def test_a_known_name_places_by_its_fingerprint(self, supervisor):
        supervisor._fingerprints["films"] = "f00d"
        try:
            path = "/v1/tables/films/map"
            slots = supervisor._slots_for(request("GET", path), *match(path))
            assert slots == supervisor.ring.owners("table:f00d", 2)
        finally:
            supervisor._fingerprints.clear()

    def test_commands_place_by_session_then_table(self, supervisor):
        path = "/v1/commands/open"
        sticky = request("POST", path, b'{"session": "s9", "table": "t"}')
        assert supervisor._slots_for(sticky, *match(path)) == (
            supervisor.ring.owners("session:s9", 2)
        )
        stateless = request("POST", path, b'{"table": "t"}')
        assert supervisor._slots_for(stateless, *match(path)) == (
            supervisor.ring.owners("table:t", 2)
        )

    @pytest.mark.parametrize(
        ("path", "body"),
        [
            ("/v1/tables", b""),
            ("/v1/tables/", b""),
            ("/v1/commands/tables", b"{}"),
            ("/v1/commands/tables", b"{not json"),
        ],
    )
    def test_requests_naming_no_content_place_by_path(self, supervisor, path, body):
        slots = supervisor._slots_for(request("GET", path, body), *match(path))
        assert slots == supervisor.ring.owners(f"path:{path.rstrip('/')}", 2)

    def test_every_row_the_supervisor_answers_has_a_handler(self, supervisor):
        for route in ROUTES:
            if route.tier != "worker":
                assert callable(getattr(supervisor, f"_serve_{route.name}"))


def proxied(supervisor, method, target):
    """The supervisor's own answer to one request (no worker is asked)."""
    path, _, query = target.partition("?")
    answer = asyncio.run(
        supervisor._route(
            HttpRequest(method, path, query=parse_qs(query), headers={}, body=b"")
        )
    )
    return answer.status, answer.body.decode("utf-8")


PROXY_ANSWERED = [route for route in ROUTES if route.tier != "worker" and route.method]


class TestProxyRefusesLikeAWorker:
    @pytest.mark.parametrize("route", PROXY_ANSWERED, ids=ids(PROXY_ANSWERED))
    def test_the_other_method_is_a_405(self, supervisor, route):
        other = "POST" if route.method == "GET" else "GET"
        body = {
            "code": "method_not_allowed",
            "error": f"use {route.method} for this resource",
            "ok": False,
        }
        assert proxied(supervisor, other, route.template.format(**PARAMS)) == (
            405,
            json.dumps(body, sort_keys=True),
        )

    @pytest.mark.parametrize(
        ("method", "target"),
        [
            ("POST", "/v1/traces"),
            ("GET", "/v1/traces?limit=0"),
            ("GET", "/v1/traces?limit=x"),
        ],
    )
    def test_traces_refuses_with_a_single_processs_bytes(
        self, supervisor, service, method, target
    ):
        body = b"{}" if method == "POST" else None
        assert proxied(supervisor, method, target) == exchange(
            service, method, target, body
        )


def readme_row(route) -> str:
    """A row's declared half; its meaning is the README's to word."""
    answered_by = {
        "worker": "one worker",
        "all": "every worker",
        "fleet": "supervisor",
    }[route.tier]
    return f"| `{route.template}` | {route.method or 'any'} | {answered_by} |"


class TestReadme:
    @pytest.mark.parametrize("route", ROUTES, ids=ids(ROUTES))
    def test_route_table_matches_the_declarations(self, route):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        assert readme_row(route) in readme

    def test_route_table_has_no_extra_rows(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        rows = re.findall(r"^\| `/[^`]*` \| (?:GET|POST|any) \| .*\|$", readme, re.M)
        assert len(rows) == len(ROUTES)
