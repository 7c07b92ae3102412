"""Fixtures for the serving-layer tests: a real service on a real port."""

from __future__ import annotations

import asyncio
import http.client
import json
import threading

import pytest

from repro.core.config import BlaeuConfig
from repro.core.engine import Blaeu
from repro.datasets.synthetic import mixed_blobs
from repro.service.app import BlaeuService, PoolConfig, ServiceConfig


class RunningService:
    """A :class:`BlaeuService` running its event loop on a thread."""

    def __init__(self, engine: Blaeu, config: ServiceConfig) -> None:
        self._engine = engine
        self._config = config
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self.service: BlaeuService | None = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def start(self) -> "RunningService":
        self._thread.start()
        if not self._ready.wait(timeout=15):
            raise RuntimeError("service failed to start within 15s")
        return self

    def stop(self) -> None:
        assert self._loop is not None and self._stop_event is not None
        self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(timeout=15)

    @property
    def port(self) -> int:
        assert self.service is not None
        return self.service.port

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self.service = BlaeuService(self._engine, self._config)
        await self.service.start()
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        serve_task = asyncio.create_task(self.service.serve_forever())
        self._ready.set()
        await self._stop_event.wait()
        await self.service.stop()
        serve_task.cancel()

    # ------------------------------------------------------------------
    # Client helpers
    # ------------------------------------------------------------------

    def exchange(
        self,
        method: str,
        path: str,
        body: bytes | None = None,
        headers: dict[str, str] | None = None,
    ) -> tuple[int, bytes]:
        connection = http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=30
        )
        try:
            connection.request(method, path, body=body, headers=headers or {})
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def get(self, path: str) -> tuple[int, bytes]:
        return self.exchange("GET", path)

    def post(self, path: str, body: object) -> tuple[int, dict]:
        payload = (
            body if isinstance(body, bytes) else json.dumps(body).encode()
        )
        status, raw = self.exchange(
            "POST", path, payload, {"Content-Type": "application/json"}
        )
        return status, json.loads(raw)

    def get_json(self, path: str) -> tuple[int, dict]:
        status, body = self.get(path)
        return status, json.loads(body)


@pytest.fixture(scope="module")
def service_runner():
    """The harness class itself, for tests building bespoke services."""
    return RunningService


@pytest.fixture(scope="module")
def service():
    """A service over a small synthetic table, torn down after the module."""
    engine = Blaeu(BlaeuConfig(map_k_values=(2, 3), seed=5))
    engine.register(mixed_blobs(n_rows=300, k=2, seed=61).table)
    running = RunningService(
        engine,
        ServiceConfig(port=0, pool=PoolConfig(threads=2, max_pending=32)),
    ).start()
    yield running
    running.stop()


@pytest.fixture(scope="module")
def approx_service(tmp_path_factory):
    """A service over a store-backed table with approximate-first counts."""
    from repro.store import write_store

    config = BlaeuConfig(
        map_k_values=(2, 3),
        map_sample_size=200,
        seed=5,
        count_mode="approximate",
    )
    table = mixed_blobs(n_rows=2_500, k=3, seed=61).table
    root = tmp_path_factory.mktemp("approx_store") / "s"
    write_store(table, root, chunk_rows=256)
    engine = Blaeu(config)
    engine.load_store(root)
    running = RunningService(
        engine,
        ServiceConfig(port=0, pool=PoolConfig(threads=2, max_pending=32)),
    ).start()
    yield running
    running.stop()
