"""The supervisor's keep-alive connections to its workers.

Each worker slot pools the idle connections its exchanges leave behind,
tagged with the worker generation that opened them.  These tests pin
when a connection may carry another exchange, and what the proxy puts
on it: the request target exactly as it arrived, and nothing back into
the pool but a complete, length-framed keep-alive response.

The fleets here run their supervisor on a thread of the test process
(the workers are real ``python -m repro serve`` children), so the pool
can be read directly and a run under ``-X dev -W error::ResourceWarning``
fails on a transport left unclosed.  Health probes are off unless a test
turns them on: a probe racing a request would open a second connection.
"""

from __future__ import annotations

import asyncio
import contextlib
import http.client
import itertools
import json
import os
import signal
import threading
import time
import types
from collections.abc import Iterator
from pathlib import Path

import pytest

from repro.service import supervisor as supervisor_module
from repro.service.config import CacheConfig, PoolConfig, ServiceConfig
from repro.service.http import HttpRequest
from repro.service.supervisor import Supervisor

SRC = Path(__file__).resolve().parents[2] / "src"


def _exchange(
    port: int, method: str, target: str, body: object = None
) -> tuple[int, bytes, dict[str, str]]:
    """One request to ``port`` on a connection of its own."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        payload = None if body is None else json.dumps(body).encode()
        connection.request(method, target, body=payload)
        response = connection.getresponse()
        headers = {k.lower(): v for k, v in response.getheaders()}
        return response.status, response.read(), headers
    finally:
        connection.close()


class Fleet:
    """A two-worker :class:`Supervisor` serving on a thread of its own."""

    def __init__(self, supervisor: Supervisor) -> None:
        self.supervisor = supervisor
        self._ready = threading.Event()
        self._error: BaseException | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "Fleet":
        self._thread.start()
        assert self._ready.wait(120), "fleet never booted"
        if self._error is not None:
            raise self._error
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()

    def stop(self) -> None:
        if self._thread.is_alive():
            assert self._loop is not None and self._stop is not None
            self._loop.call_soon_threadsafe(self._stop.set)
            self._thread.join(60)

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            await self.supervisor.start()
        except BaseException as error:  # surfaced by __enter__
            self._error = error
        self._ready.set()
        if self._error is None:
            await self._stop.wait()
        await self.supervisor.stop()

    def request(
        self, method: str, target: str, body: object = None
    ) -> tuple[int, bytes, dict[str, str]]:
        return _exchange(self.supervisor.port, method, target, body)

    def status(self, method: str, target: str, body: object = None) -> int:
        return self.request(method, target, body)[0]

    def workers(self) -> list[dict]:
        status, body, _ = self.request("GET", "/v1/workers")
        assert status == 200
        return json.loads(body)["workers"]

    def retries(self) -> float:
        _, body, _ = self.request("GET", "/metrics")
        for line in body.decode().splitlines():
            if line.startswith("blaeu_resilience_proxy_retries_total "):
                return float(line.split()[1])
        raise AssertionError("no retry counter in /metrics")

    def sessions_on(self, slot: int) -> Iterator[str]:
        """Session ids the ring places on ``slot``, in order."""
        ring = self.supervisor.ring
        return (
            name
            for name in (f"s{index}" for index in itertools.count())
            if ring.owner(f"session:{name}") == slot
        )


@pytest.fixture
def fleet(tmp_path, monkeypatch):
    """``fleet(sources, read_timeout=30.0)`` → an unstarted :class:`Fleet`."""
    monkeypatch.setattr(supervisor_module, "HEALTH_INTERVAL", 3600.0)
    for name in [name for name in os.environ if name.startswith("BLAEU_")]:
        monkeypatch.delenv(name)
    monkeypatch.setenv("PYTHONPATH", str(SRC))

    def make(sources, read_timeout: float = 30.0) -> Fleet:
        config = ServiceConfig(
            port=0,
            read_timeout=read_timeout,
            pool=PoolConfig(processes=2, threads=1),
            cache=CacheConfig(dir=str(tmp_path / "cache")),
        )
        return Fleet(
            Supervisor(config, [str(s) for s in sources])
        )

    return make


def _open(session: str) -> dict[str, object]:
    return {"session": session, "table": "points", "theme": 0}


def test_sequential_requests_reuse_one_connection_per_worker(fleet, csv_path):
    with fleet([csv_path]) as running:
        proxied = 0
        for index in range(25):
            session = f"seq{index}"
            assert running.status("POST", "/v1/commands/open", _open(session)) == 200
            assert running.status(
                "POST", "/v1/commands/close", {"session": session}
            ) == 200
            proxied += 2
        assert proxied == 50
        workers = running.workers()
        # The ring spread the sessions over both slots, and each slot's
        # exchanges (sequential, probes off) shared one connection.
        assert [worker["connections_opened"] for worker in workers] == [1, 1]
        assert [worker["connections_idle"] for worker in workers] == [1, 1]


#: Imported by a worker's interpreter at startup when its directory is on
#: ``PYTHONPATH``: the worker resolves a short ``read_timeout``, as the
#: supervisor under test does (it is a constructor-only field, which no
#: flag or variable hands down).
SHORT_READ_TIMEOUT = """\
import dataclasses

from repro.service import config

_resolve = config.resolve
config.resolve = lambda *args, **kwargs: dataclasses.replace(
    _resolve(*args, **kwargs), read_timeout={seconds}
)
"""


def test_a_connection_idle_past_the_worker_timeout_is_not_reused(
    fleet, csv_path, tmp_path, monkeypatch
):
    seconds = 1.0
    site = tmp_path / "site"
    site.mkdir()
    (site / "sitecustomize.py").write_text(
        SHORT_READ_TIMEOUT.format(seconds=seconds)
    )
    monkeypatch.setenv("PYTHONPATH", f"{site}{os.pathsep}{SRC}")
    with fleet([csv_path], read_timeout=seconds) as running:
        slot = 0
        session = next(running.sessions_on(slot))
        assert running.status("POST", "/v1/commands/open", _open(session)) == 200
        opened = running.workers()[slot]["connections_opened"]
        # The worker closes its end of the idle connection meanwhile; a
        # session command is delivered once, so reusing it would be a 503.
        time.sleep(seconds * 1.5)
        assert running.status(
            "POST", "/v1/commands/close", {"session": session}
        ) == 200
        assert running.workers()[slot]["connections_opened"] == opened + 1


def _await_respawn(running: Fleet, slot: int, generation: int) -> None:
    """Wait until ``slot`` serves a worker newer than ``generation``."""
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        worker = running.workers()[slot]
        if worker["generation"] > generation and worker["alive"] and worker["port"]:
            return
        time.sleep(0.05)
    raise AssertionError(f"slot {slot} was never respawned")


def test_no_exchange_rides_an_old_generation_connection(fleet, csv_path):
    with fleet([csv_path]) as running:
        status, _, headers = running.request("GET", "/v1/tables/points/map")
        assert status == 200
        slot = int(headers["x-blaeu-worker"])
        sessions = running.sessions_on(slot)
        before = next(sessions)
        assert running.status("POST", "/v1/commands/open", _open(before)) == 200
        assert running.workers()[slot]["connections_idle"] == 1

        def kill(worker: dict) -> None:
            os.kill(worker["pid"], signal.SIGKILL)

        def restart(worker: dict) -> None:
            assert running.status("POST", f"/v1/workers/{slot}/restart") == 200

        for replace in (restart, kill):
            old = running.workers()[slot]
            replace(old)
            _await_respawn(running, slot, old["generation"])
            # The session died with its worker: a 404 from the new one,
            # not a 503 from a connection to the old one.
            assert running.status(
                "POST", "/v1/commands/close", {"session": before}
            ) == 404
            before = next(sessions)
            assert running.status("POST", "/v1/commands/open", _open(before)) == 200
            assert running.status("GET", "/v1/tables/points/map") == 200
            assert running.retries() == 0
            worker = running.workers()[slot]
            assert worker["connections_opened"] == old["connections_opened"] + 1


def test_a_timed_out_health_probe_leaves_no_pooled_connection(
    fleet, csv_path, monkeypatch
):
    monkeypatch.setattr(supervisor_module, "HEALTH_INTERVAL", 0.2)
    monkeypatch.setattr(supervisor_module, "HEALTH_TIMEOUT", 0.5)
    monkeypatch.setattr(supervisor_module, "HEALTH_FAIL_THRESHOLD", 10**6)
    with fleet([csv_path]) as running:
        slot = 1
        worker = running.supervisor.workers[slot]
        deadline = time.monotonic() + 30
        while running.workers()[slot]["connections_idle"] != 1:
            assert time.monotonic() < deadline, "probes never pooled a connection"
            time.sleep(0.05)
        pid = worker.process.pid
        os.kill(pid, signal.SIGSTOP)  # alive, but its socket is wedged
        try:
            while worker.health_fails < 1:
                assert time.monotonic() < deadline, "the probe never timed out"
                time.sleep(0.05)
            assert running.workers()[slot]["connections_idle"] == 0
        finally:
            os.kill(pid, signal.SIGCONT)
        assert running.status("GET", "/v1/tables/points/map") == 200


def _socket_peers() -> set[int]:
    """Remote ports of the TCP sockets this process holds open."""
    inodes = set()
    for fd in os.listdir("/proc/self/fd"):
        with contextlib.suppress(OSError):
            link = os.readlink(f"/proc/self/fd/{fd}")
            if link.startswith("socket:["):
                inodes.add(link[len("socket:[") : -1])
    ports = set()
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        with contextlib.suppress(OSError), open(table) as lines:
            for line in itertools.islice(lines, 1, None):
                fields = line.split()
                if fields[9] in inodes:
                    ports.add(int(fields[2].rsplit(":", 1)[1], 16))
    return ports


def test_stop_closes_every_pooled_transport(fleet, csv_path):
    running = fleet([csv_path])
    with running:
        assert running.status("GET", "/healthz") == 200  # fans out to both
        ports = {worker["port"] for worker in running.workers()}
        assert ports <= _socket_peers()
        running.stop()
        assert not ports & _socket_peers()
        assert not any(worker.idle for worker in running.supervisor.workers)


# ----------------------------------------------------------------------
# What the proxy forwards
# ----------------------------------------------------------------------

#: Request targets whose bytes a proxy must not rewrite.
TARGETS = [
    "/v1/tables/my%20data/themes",
    "/v1/tables/my%20data/map?k=2&note=",
    "/v1/tables/my%20data/map?k=%33",
    "/v1/tables/my%2Fdata/themes",
]


def test_the_target_is_forwarded_as_it_arrived(fleet, csv_path, tmp_path, serving):
    data = tmp_path / "my data.csv"
    data.write_text(csv_path.read_text())
    with serving([str(data)]) as (base, _):
        port = int(base.rsplit(":", 1)[1])
        single = [_exchange(port, "GET", target)[:2] for target in TARGETS]
    with fleet([data]) as running:
        proxied = [running.request("GET", target)[:2] for target in TARGETS]
    assert [status for status, _ in single][:2] == [200, 200]
    assert proxied == single


# ----------------------------------------------------------------------
# What the proxy takes back: a fake worker's responses
# ----------------------------------------------------------------------

OK = b'{"ok": true}'

#: Worker answers the proxy must treat as a failed exchange (a 503 for
#: a once-delivered session command), closing the connection.  The fake
#: keeps its end open after each, except where the answer is cut short.
MALFORMED = {
    "no-content-length": b"HTTP/1.1 200 OK\r\nConnection: keep-alive\r\n\r\n" + OK,
    "bad-content-length": (
        b"HTTP/1.1 200 OK\r\nContent-Length: twelve\r\n"
        b"Connection: keep-alive\r\n\r\n" + OK
    ),
    "negative-content-length": (
        b"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n"
        b"Connection: keep-alive\r\n\r\n"
    ),
    "ambiguous-framing": (
        b"HTTP/1.1 200 OK\r\nContent-Length: 12\r\nTransfer-Encoding: chunked"
        b"\r\nConnection: keep-alive\r\n\r\n" + OK
    ),
    "headers-too-large": (
        b"HTTP/1.1 200 OK\r\n"
        + b"".join(b"X-Pad-%d: %s\r\n" % (i, b"a" * 1000) for i in range(40))
        + b"Content-Length: 12\r\nConnection: keep-alive\r\n\r\n"
        + OK
    ),
    "bad-status-line": b"HTTP/1.1 OK\r\nContent-Length: 12\r\n\r\n" + OK,
    "truncated-body": b"HTTP/1.1 200 OK\r\nContent-Length: 99\r\n\r\n" + OK,
    "nothing": b"",
}


def _exchange_with_fake_worker(tmp_path, reply: bytes, hang_up: bool = False):
    """Proxy one session command to a fake worker that answers ``reply``
    (and then closes its end if ``hang_up``).

    Returns the proxy's response, whether the fake saw its connection
    closed by the proxy, and the idle connections the slots kept.
    """

    async def main():
        closed = asyncio.Event()

        async def handle(reader, writer):
            head = await reader.readuntil(b"\r\n\r\n")
            length = next(
                int(line.split(b":")[1])
                for line in head.split(b"\r\n")
                if line.lower().startswith(b"content-length:")
            )
            await reader.readexactly(length)
            writer.write(reply)
            await writer.drain()
            if hang_up:
                writer.close()
            await reader.read()  # until the proxy hangs up
            closed.set()
            writer.close()

        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        config = ServiceConfig(
            pool=PoolConfig(processes=2),
            cache=CacheConfig(dir=str(tmp_path / "cache")),
        )
        supervisor = Supervisor(config, ["--demo", "hollywood"])
        alive = types.SimpleNamespace(poll=lambda: None, pid=0)
        for worker in supervisor.workers:
            worker.port, worker.process = port, alive
        body = b'{"session": "s1", "region": "r0"}'
        request = HttpRequest(
            "POST", "/v1/commands/zoom", {}, {}, body, "/v1/commands/zoom"
        )
        try:
            response = await asyncio.wait_for(supervisor._route(request), 10)
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(closed.wait(), 0.5)
            hung_up = closed.is_set()
            idle = sum(len(worker.idle) for worker in supervisor.workers)
        finally:
            for worker in supervisor.workers:
                worker.process = None
            await supervisor.stop()
            server.close()
            await server.wait_closed()
        return response, hung_up, idle

    return asyncio.run(main())


@pytest.mark.parametrize("case", list(MALFORMED))
def test_a_malformed_worker_response_is_a_503_and_never_pooled(tmp_path, case):
    hang_up = case in ("truncated-body", "nothing")
    response, closed, idle = _exchange_with_fake_worker(
        tmp_path, MALFORMED[case], hang_up
    )
    assert response.status == 503
    assert json.loads(response.body)["code"] == "unavailable"
    assert closed and idle == 0


@pytest.mark.parametrize(
    ("connection", "pooled"), [(b"keep-alive", True), (b"close", False)]
)
def test_only_a_keep_alive_response_is_pooled(tmp_path, connection, pooled):
    reply = (
        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
        b"Content-Length: 12\r\nConnection: " + connection + b"\r\n\r\n" + OK
    )
    response, closed, idle = _exchange_with_fake_worker(tmp_path, reply)
    assert (response.status, response.body) == (200, OK)
    assert (idle, closed) == ((1, False) if pooled else (0, True))
