"""What ``/metrics`` exposes, read the way a scraper and the ledger read it.

Every monotonic count of the serving tier is a registry counter, kept
once where its event happens; ``/metrics`` adds only gauges read off
live state.  So each name has one ``# TYPE`` line, and every ``*_total``
name is a counter — on one worker and on the supervisor's merged body.
The ledger derives its per-layer pool and cache numbers from these
series (``benchmarks/e2e/ledger/layers.py``); on a fixed walk they are
pinned to what they read when the pool and the L1 still kept their own
counts and ``/metrics`` copied them into gauges.
"""

from __future__ import annotations

import asyncio
import importlib
import json
import re
import sys
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import BlaeuConfig
from repro.core.engine import Blaeu
from repro.service.config import PoolConfig, ServiceConfig

LEDGER = str(Path(__file__).resolve().parents[2] / "benchmarks" / "e2e")

#: ``layers.derive`` on :func:`_walk`, as recorded before the change:
#: pool completions, pool rejections, L1 hit share.
DERIVED = {
    "single": (13.0, 0.0, 0.222222),
    "fleet": (13.0, 0.0, 0.105263),
}


@pytest.fixture(scope="module")
def layers():
    sys.path.insert(0, LEDGER)
    try:
        return importlib.import_module("ledger.layers")
    finally:
        sys.path.remove(LEDGER)


@pytest.fixture(scope="module")
def blobs_csv(tmp_path_factory) -> Path:
    """200 rows in two well-separated blobs: big enough to zoom into."""
    rng = np.random.default_rng(7)
    path = tmp_path_factory.mktemp("exposition") / "blobs.csv"
    rows = ["x,y,group"]
    for index in range(200):
        centre = 0.0 if index % 2 else 10.0
        x, y = rng.normal(centre, 1.0, size=2)
        rows.append(f"{x:.4f},{y:.4f},{'ab'[index % 2]}")
    path.write_text("\n".join(rows) + "\n")
    return path


def _call(base: str, method: str, path: str, body: object = None):
    data = None if body is None else json.dumps(body).encode()
    request = urllib.request.Request(base + path, data=data, method=method)
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        with error:
            return error.code, json.loads(error.read())


def _walk(base: str) -> int:
    """One fixed request sequence: two sessions walk the same path (the
    second warm), the stateless map twice, and one miss.  Returns the
    number of requests sent."""
    sent = 0

    def call(method: str, path: str, body: object = None, expect: int = 200):
        nonlocal sent
        sent += 1
        status, payload = _call(base, method, path, body)
        assert status == expect, payload
        return payload

    call("GET", "/v1/tables")
    call("GET", "/v1/tables/blobs/themes")
    region = None
    for session in ("a", "b"):
        opened = call(
            "POST",
            "/v1/commands/open",
            {"session": session, "table": "blobs", "theme": 0},
        )
        region = region or opened["map"]["root"]["children"][0]["id"]
        call("POST", "/v1/commands/zoom", {"session": session, "region": region})
        call("POST", "/v1/commands/rollback", {"session": session})
    call("GET", "/v1/tables/blobs/map?theme=0")
    call("GET", "/v1/tables/blobs/map?theme=0")
    call("POST", "/v1/commands/zoom", {"session": "gone", "region": "r0"}, 404)
    for session in ("a", "b"):
        call("POST", "/v1/commands/close", {"session": session})
    return sent


def _types(text: str) -> dict[str, list[str]]:
    """Metric name → every type its ``# TYPE`` lines declare."""
    types: dict[str, list[str]] = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[:2] == ["#", "TYPE"]:
            types.setdefault(parts[2], []).append(parts[3])
    return types


def _sample_names(text: str) -> set[str]:
    return {
        re.split(r"[{ ]", line, maxsplit=1)[0]
        for line in text.splitlines()
        if line and not line.startswith("#")
    }


def _check_exposition(text: str) -> None:
    types = _types(text)
    doubled = {name: kinds for name, kinds in types.items() if len(kinds) > 1}
    assert not doubled, f"names with more than one # TYPE line: {doubled}"
    not_counters = {
        name: kinds[0]
        for name, kinds in types.items()
        if name.endswith("_total") and kinds[0] != "counter"
    }
    assert not not_counters, f"*_total names that are not counters: {not_counters}"
    untyped = {
        name
        for name in _sample_names(text)
        if name.endswith("_total") and name not in types
    }
    assert not untyped, f"*_total samples without a # TYPE line: {untyped}"


@pytest.fixture
def single(service_runner, blobs_csv):
    engine = Blaeu(BlaeuConfig())
    engine.load_csv(blobs_csv)
    running = service_runner(
        engine, ServiceConfig(port=0, pool=PoolConfig(threads=2, max_pending=32))
    ).start()
    yield f"http://127.0.0.1:{running.port}"
    running.stop()


@pytest.fixture
def fleet(serving, blobs_csv):
    with serving(["--workers", "2", str(blobs_csv)], boot_timeout=60) as (base, _):
        yield base


@pytest.mark.parametrize("surface", ["single", "fleet"])
def test_metrics_after_a_fixed_walk(request, layers, surface):
    """One ``# TYPE`` per name, every ``*_total`` a counter, and the
    ledger's pool and cache numbers as they were."""
    base = request.getfixturevalue(surface)
    port = int(base.rsplit(":", 1)[1])
    before = layers.scrape(port)
    n_requests = _walk(base)
    with urllib.request.urlopen(base + "/metrics", timeout=60) as response:
        _check_exposition(response.read().decode())
    counters = layers.Counters()
    counters.add(before, layers.scrape(port))
    derived = layers.derive(counters, n_requests, 0.0)
    assert (
        derived["pool.completed"],
        derived["pool.rejected"],
        round(derived["cache.l1_hit_share"], 6),
    ) == DERIVED[surface]


def test_two_services_in_one_process_render_the_same_registry():
    """One process has one registry: a second service built in it takes
    none of the first one's counts, and both render them."""
    from repro.obs.metrics import reset_metrics
    from repro.service.app import BlaeuService
    from repro.service.http import HttpRequest

    reset_metrics()
    config = ServiceConfig(port=0, pool=PoolConfig(threads=1, max_pending=4))
    first = BlaeuService(Blaeu(), config)
    second = BlaeuService(Blaeu(), config)
    scrape = HttpRequest("GET", "/metrics", query={}, headers={}, body=b"")

    async def run():
        try:
            await first.pool.run(int, "7")
            return [
                (await service._route(scrape)).body.decode("utf-8")
                for service in (first, second)
            ]
        finally:
            first.pool.shutdown(wait=True)
            second.pool.shutdown(wait=True)

    bodies = asyncio.run(run())
    assert first.metrics is second.metrics
    for body in bodies:
        assert "blaeu_pool_completed_total 1" in body.splitlines()
