"""Fixtures for the serving-layer tests: a real service on a real port —
in-process on a thread, or ``python -m repro serve`` as a child process.
"""

from __future__ import annotations

import asyncio
import contextlib
import http.client
import json
import os
import re
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

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


# ----------------------------------------------------------------------
# ``python -m repro serve`` as a child process
# ----------------------------------------------------------------------

POINTS_CSV = """name,x,y,group
a,1.0,2.0,red
b,1.1,2.1,red
c,1.2,1.9,red
d,8.0,9.0,blue
e,8.1,9.2,blue
f,7.9,8.8,blue
g,1.05,2.05,red
h,8.05,9.05,blue
i,1.15,1.95,red
j,7.95,9.1,blue
k,1.08,2.02,red
l,8.02,8.95,blue
"""


@pytest.fixture(scope="session")
def csv_path(tmp_path_factory):
    """The ``points`` table (12 rows, two obvious clusters); read-only."""
    path = tmp_path_factory.mktemp("data") / "points.csv"
    path.write_text(POINTS_CSV)
    return path


#: A child's environment: the source tree importable and every inherited
#: ``BLAEU_*`` stripped — a stray one changes what boots.
SERVE_ENV = {
    **{k: v for k, v in os.environ.items() if not k.startswith("BLAEU_")},
    "PYTHONPATH": str(Path(__file__).resolve().parents[2] / "src"),
}


def _fetch(url, timeout=10):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return json.loads(response.read())


@contextlib.contextmanager
def _serving(argv, env=SERVE_ENV, boot_timeout=30):
    process = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro", "serve", "--port", "0", *argv],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        assert process.stdout is not None
        line = process.stdout.readline()
        match = re.search(r"http://127\.0\.0\.1:(\d+)", line)
        assert match, f"unexpected banner: {line!r}"
        base = f"http://127.0.0.1:{match.group(1)}"
        deadline = time.monotonic() + boot_timeout
        while True:
            try:
                if _fetch(f"{base}/healthz")["ok"]:
                    break
            except OSError:  # not listening yet, or a 503 while workers boot
                pass
            assert time.monotonic() < deadline, "never became healthy"
            time.sleep(0.1)
        yield base, line
    finally:
        process.terminate()
        try:
            process.wait(timeout=15)
        except subprocess.TimeoutExpired:  # pragma: no cover
            process.kill()
            process.wait(timeout=15)
        process.stdout.close()


@pytest.fixture(scope="session")
def serve_env():
    """:data:`SERVE_ENV`, for tests that add a variable or run a child
    themselves."""
    return SERVE_ENV


@pytest.fixture(scope="session")
def fetch():
    """``fetch(url or Request, timeout=10)`` → the decoded JSON answer."""
    return _fetch


@pytest.fixture(scope="session")
def serving():
    """``serving(argv, env=SERVE_ENV, boot_timeout=30)``: a context manager
    around ``python -m repro serve --port 0 <argv>`` that yields, once
    ``/healthz`` answers ok, its base URL and banner line."""
    return _serving
