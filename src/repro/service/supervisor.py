"""The fleet supervisor: N worker processes over one artifact cache.

``blaeu serve --workers N`` boots this tier instead of a single
:class:`~repro.service.app.BlaeuService`.  The supervisor owns the
public socket and forwards each request to one of N worker processes,
each a full single-process service on a loopback port: a spawned
``python -m repro serve`` that imports its own engine.  The supervisor
itself imports only the standard library and the proxy's own modules.
What makes the fleet act like one warm service is the *shared on-disk
artifact cache* (:mod:`repro.store.artifacts`): every worker mounts the
same cache directory as its L2 tier, so a map one worker pays for is a
disk hit for every other worker — and for the worker's own replacement
after a restart.

Request placement is consistent-hash routing
(:mod:`repro.service.routing`) keyed on content identity:

* ``/v1/tables/{ref}/…`` routes on the table's *fingerprint* (names
  are resolved through the catalog), so all work on the same data
  lands on the worker whose in-memory L1 already holds it;
* session commands route on the session id — sessions are sticky to a
  *slot*, and a restarted worker reoccupies its slot;
* ``/metrics`` and ``/v1/traces`` fan out to every worker and answer
  the merged view (counters and histograms summed, each gauge kept per
  worker under a ``slot`` label as ``blaeu_worker_up`` is, traces
  interleaved).

The hop to a worker is one HTTP/1.1 exchange over a *pooled keep-alive
connection*: each slot keeps the idle connections its exchanges left
behind, tagged with the worker generation that opened them, and an
exchange takes one (or opens one when none is idle).  Proxying, health
probes, fan-outs and catalog refreshes share that one client.  The
request target is forwarded exactly as it arrived.  A connection is
never reused across a respawn, restart or drain, after a failed or
cancelled exchange, or once it has been idle for half of
``read_timeout`` — the time after which a worker closes it — so a
failure on a pooled connection still means the worker failed.

Workers announce their bound port through a *port file* (they bind
port 0), are monitored, and are respawned into their slot on death;
``POST /v1/workers/{slot}/restart`` triggers a graceful rolling
restart whose replacement serves warm from disk.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.resilience.retry import RetryBudget, jittered_backoff
from repro.service import routes
from repro.service.config import ServiceConfig, worker_env
from repro.service.http import (
    HttpError,
    HttpRequest,
    HttpResponse,
    HttpServer,
    error_response,
    json_response,
    read_response,
    serve_until_signalled,
    text_response,
)
from repro.service.routing import HashRing

__all__ = ["Supervisor", "SupervisorError", "merge_metrics"]

#: Headers the proxy strips rather than forwards (hop-by-hop framing).
_HOP_HEADERS = ("connection", "content-length", "host", "keep-alive")

#: How an exchange with a worker fails at the transport level: the
#: socket refuses or resets (``ConnectionError`` is an ``OSError``, and
#: so is a malformed response), or the worker dies mid-response.
_TRANSPORT_ERRORS = (OSError, asyncio.IncompleteReadError)

#: Seconds a spawned worker has to announce its port.
SPAWN_TIMEOUT = 60.0
#: Active health checks: each worker gets a ``/healthz`` probe every
#: ``HEALTH_INTERVAL`` seconds, bounded by ``HEALTH_TIMEOUT``;
#: ``HEALTH_FAIL_THRESHOLD`` consecutive failures mark a hung-but-alive
#: worker (process up, socket wedged) for a hard respawn.
HEALTH_INTERVAL = 1.0
HEALTH_TIMEOUT = 2.0
HEALTH_FAIL_THRESHOLD = 2
#: Retry-budget deposit per first attempt (see
#: :class:`~repro.resilience.retry.RetryBudget`): retries are capped at
#: roughly this fraction of live traffic.
RETRY_RATIO = 0.2


class SupervisorError(RuntimeError):
    """A worker failed to boot or died unrecoverably."""


@dataclass(eq=False)
class _Connection:
    """One keep-alive connection to a worker, and whose it is."""

    reader: asyncio.StreamReader
    writer: asyncio.StreamWriter
    #: The worker generation it was opened to; any other never reuses it.
    generation: int
    #: ``time.monotonic()`` when it was last put back idle.
    idle_since: float = 0.0


@dataclass
class WorkerProcess:
    """One supervised worker slot."""

    slot: int
    process: subprocess.Popen | None = None
    port: int | None = None
    generation: int = 0
    restarts: int = 0
    port_file: Path = field(default=Path("."))
    #: Set while the slot is being drained for a graceful restart; the
    #: proxy refuses to route to a draining slot (failover handles it).
    draining: bool = False
    #: Requests currently proxied to this worker.
    in_flight: int = 0
    #: Consecutive failed health probes (reset on success).
    health_fails: int = 0
    #: Keep-alive connections to this slot's worker not in an exchange
    #: (most recently used last).
    idle: list[_Connection] = field(default_factory=list)
    #: Connections ever opened to this slot, across generations.
    connections_opened: int = 0

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.poll() is None


def merge_metrics(
    bodies: list[tuple[int, str]], extra: list[str] | None = None
) -> str:
    """Merge per-worker Prometheus expositions, ``(slot, body)`` pairs,
    into one body by each series' ``# TYPE``.

    Counter and histogram series (buckets, sums, counts) with identical
    names and labels are summed, as are untyped ones.  A gauge is one
    worker's state (a breaker's, its last build's seconds), which a sum
    would misreport, so each worker's series is kept under a
    ``slot="<n>"`` label, as ``blaeu_worker_up`` has it.  ``# TYPE``
    lines are kept (first wins) and re-emitted ahead of their series, so
    the merged body is valid exposition text.
    """
    types: dict[str, str] = {}
    series: dict[str, float] = {}
    for slot, body in bodies:
        for line in body.splitlines():
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                parts = line.split()
                if len(parts) >= 4 and parts[1] == "TYPE":
                    types.setdefault(parts[2], line)
                continue
            key, _, value = line.rpartition(" ")
            if not key:
                continue
            try:
                number = float(value)
            except ValueError:
                continue
            if types.get(key.split("{", 1)[0], "").endswith(" gauge"):
                key = _with_slot(key, slot)
            series[key] = series.get(key, 0.0) + number

    def metric_name(key: str) -> str:
        name = key.split("{", 1)[0].strip()
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in types:
                return name[: -len(suffix)]
        return name

    grouped: dict[str, list[str]] = {}
    for key, value in series.items():
        text = f"{value:g}"
        grouped.setdefault(metric_name(key), []).append(f"{key} {text}")
    lines: list[str] = []
    emitted: set[str] = set()
    for name, type_line in types.items():
        if name not in grouped:
            continue
        lines.append(type_line)
        lines.extend(grouped[name])
        emitted.add(name)
    for name, entries in grouped.items():
        if name not in emitted:
            lines.extend(entries)
    if extra:
        lines.extend(extra)
    return "\n".join(lines) + "\n"


def _with_slot(key: str, slot: int) -> str:
    """A series key (``name`` or ``name{labels}``) with a ``slot`` label."""
    name, brace, labels = key.partition("{")
    if brace:
        return f'{name}{{{labels[:-1]},slot="{slot}"}}'
    return f'{name}{{slot="{slot}"}}'


class Supervisor:
    """The multi-worker front: spawn, route, aggregate, respawn.

    Parameters
    ----------
    config:
        The resolved serving config.  ``pool.processes`` is the worker
        count (slots ``0 … n-1``), ``host`` / ``port`` the public bind
        address (workers bind loopback port 0),
        ``resilience.drain_timeout`` how long a draining slot may finish
        in-flight requests before a graceful restart terminates it.
        Every worker boots under this config (:func:`worker_env`), over
        one shared ``cache.dir`` — a temp directory when none is set,
        which :meth:`start` makes and :meth:`stop` removes.
    sources:
        What each worker serves: the data arguments of ``blaeu serve``
        (CSV files / store directories, or ``--demo <name>``).

    The workers' port files live in a temp directory that :meth:`start`
    makes and :meth:`stop` removes.
    """

    def __init__(self, config: ServiceConfig, sources: list[str]) -> None:
        if config.pool.processes < 2:
            raise ValueError("a supervisor needs at least 2 workers")
        self._config = config
        self._sources = list(sources)
        self._n_workers = config.pool.processes
        # The port files' directory, and the shared cache directory of a
        # fleet configured without one: made by :meth:`start`, removed
        # by :meth:`stop`, so a supervisor that never starts leaves
        # nothing.
        self._state_dir: Path | None = None
        self._temp_cache: Path | None = None
        self._workers = [WorkerProcess(slot=slot) for slot in range(self._n_workers)]
        self._ring = HashRing(range(self._n_workers))
        self._fingerprints: dict[str, str] = {}  # name -> fingerprint
        self._http = HttpServer(
            self._route,
            host=config.host,
            port=config.port,
            read_timeout=config.read_timeout,
        )
        self._monitor_task: asyncio.Task | None = None
        self._stopping = False
        self._started_at: float | None = None
        self._retry_budget = RetryBudget(ratio=RETRY_RATIO, burst=10.0)
        # Seeded jitter: retry timing is reproducible run over run (the
        # chaos tests depend on it), while still decorrelating retries
        # within a run.
        self._retry_rng = random.Random(0xB1AE)
        self._retries = 0
        self._retry_successes = 0
        self._failovers = 0
        self._retry_exhausted = 0
        self._unhealthy_restarts = 0
        # A worker closes a connection idle for ``read_timeout``, timed
        # from before its response reached the pool; half of it leaves
        # that margin.
        self._idle_limit = config.read_timeout / 2
        # A connection is only opened when none is idle, so a slot never
        # holds more than its peak exchanges in flight; this caps the
        # idle remainder of a burst at what a worker admits at once.
        self._max_idle = config.pool.threads + config.pool.max_pending

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def host(self) -> str:
        """The public bind host."""
        return self._http.host

    @property
    def port(self) -> int:
        """The public bound port (after :meth:`start`)."""
        return self._http.port

    @property
    def workers(self) -> list[WorkerProcess]:
        """The worker slots (live view)."""
        return self._workers

    @property
    def ring(self) -> HashRing:
        """The routing ring (slots are stable across restarts)."""
        return self._ring

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Make the port files' directory (and a cache directory when
        none is configured), spawn every worker, wait for their ports,
        open the front."""
        self._state_dir = Path(tempfile.mkdtemp(prefix="blaeu-supervisor-"))
        if self._config.cache.dir is None:
            self._temp_cache = Path(tempfile.mkdtemp(prefix="blaeu-cache-"))
            self._config = replace(
                self._config,
                cache=replace(self._config.cache, dir=str(self._temp_cache)),
            )
        for worker in self._workers:
            worker.port_file = self._state_dir / f"worker-{worker.slot}.port"
            self._spawn(worker)
        await asyncio.gather(
            *(self._await_port(worker) for worker in self._workers)
        )
        await self._http.start()
        self._started_at = time.monotonic()
        self._monitor_task = asyncio.create_task(self._monitor())

    async def stop(self) -> None:
        """Stop the front, close every pooled connection, terminate the
        fleet and remove the directories :meth:`start` made."""
        self._stopping = True
        if self._monitor_task is not None:
            self._monitor_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._monitor_task
            self._monitor_task = None
        await self._http.stop()
        # Every exchange was cancelled with its task above, closing its
        # connection; only the idle ones are left.
        writers = [c.writer for w in self._workers for c in w.idle]
        for worker in self._workers:
            worker.idle.clear()
        for writer in writers:
            writer.close()
        await asyncio.gather(
            *(writer.wait_closed() for writer in writers),
            return_exceptions=True,
        )
        for worker in self._workers:
            self._terminate(worker)
        if self._state_dir is not None:
            shutil.rmtree(self._state_dir, ignore_errors=True)
            self._state_dir = None
        if self._temp_cache is not None:
            shutil.rmtree(self._temp_cache, ignore_errors=True)
            self._temp_cache = None
            self._config = replace(
                self._config, cache=replace(self._config.cache, dir=None)
            )

    async def serve_forever(self) -> None:
        """Serve until cancelled."""
        with contextlib.suppress(asyncio.CancelledError):
            await self._http.serve_forever()

    def run(self) -> None:
        """Blocking entry point with signal-triggered shutdown."""
        asyncio.run(serve_until_signalled(self, self._announce))

    def _announce(self) -> None:
        ports = [worker.port for worker in self._workers]
        print(
            f"blaeu supervisor listening on http://{self.host}:{self.port} "
            f"({self._n_workers} workers on ports {ports})"
        )

    async def restart(self, slot: int) -> None:
        """Gracefully restart one worker (warm restart via the disk tier).

        The slot is first marked *draining*: the proxy stops routing to
        it (idempotent requests fail over on the ring) while in-flight
        requests get up to ``resilience.drain_timeout`` seconds to
        finish.  Only then does the old process get SIGTERM — under
        which the worker itself drains — and the replacement reoccupies
        the same slot, so the ring still sends it the same tables, whose
        artifacts it now finds on disk.
        """
        worker = self._worker(slot)
        worker.draining = True
        try:
            give_up = (
                time.monotonic() + self._config.resilience.drain_timeout
            )
            while worker.in_flight > 0 and time.monotonic() < give_up:
                await asyncio.sleep(0.05)
            self._terminate(worker)
            worker.restarts += 1
            self._spawn(worker)
            await self._await_port(worker)
        finally:
            worker.draining = False

    # ------------------------------------------------------------------
    # Worker management
    # ------------------------------------------------------------------

    def _worker(self, slot: int) -> WorkerProcess:
        if not 0 <= slot < self._n_workers:
            raise HttpError(404, f"no worker slot {slot}")
        return self._workers[slot]

    def _spawn(self, worker: WorkerProcess) -> None:
        worker.generation += 1
        with contextlib.suppress(OSError):
            worker.port_file.unlink()
        worker.port = None
        argv = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--host",
            "127.0.0.1",
            "--port",
            "0",
            "--port-file",
            str(worker.port_file),
            *self._sources,
        ]
        env = worker_env(self._config, os.environ)
        env["BLAEU_WORKER_SLOT"] = str(worker.slot)
        worker.process = subprocess.Popen(  # noqa: S603 - our own argv
            argv,
            stdout=subprocess.DEVNULL,
            stderr=None,  # workers share the supervisor's stderr
            env=env,
            cwd=os.getcwd(),
        )

    async def _await_port(self, worker: WorkerProcess) -> None:
        deadline = time.monotonic() + SPAWN_TIMEOUT
        while time.monotonic() < deadline:
            if worker.process is not None and worker.process.poll() is not None:
                raise SupervisorError(
                    f"worker {worker.slot} exited with "
                    f"{worker.process.returncode} before announcing a port"
                )
            try:
                text = worker.port_file.read_text(encoding="utf-8").strip()
            except OSError:
                text = ""
            if text:
                worker.port = int(text)
                return
            await asyncio.sleep(0.05)
        raise SupervisorError(
            f"worker {worker.slot} did not announce a port within "
            f"{SPAWN_TIMEOUT:.0f}s"
        )

    def _terminate(self, worker: WorkerProcess) -> None:
        process = worker.process
        if process is None:
            return
        if process.poll() is None:
            with contextlib.suppress(OSError):
                process.terminate()
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover - stuck
                process.kill()
                process.wait(timeout=10)
        worker.process = None
        worker.port = None

    def _kill(self, worker: WorkerProcess) -> None:
        """Hard-stop a hung worker (SIGTERM would never be serviced)."""
        process = worker.process
        if process is not None and process.poll() is None:
            with contextlib.suppress(OSError):
                process.kill()
            with contextlib.suppress(subprocess.TimeoutExpired):
                process.wait(timeout=10)
        worker.process = None
        worker.port = None

    async def _monitor(self) -> None:
        """Respawn dead workers into their slots (ring stays stable).

        Besides watching for process exit, the monitor actively probes
        each worker's ``/healthz`` every ``HEALTH_INTERVAL`` seconds: a
        worker whose process is up but whose socket is wedged (hung
        event loop, stopped process) fails probes, and after
        ``HEALTH_FAIL_THRESHOLD`` consecutive failures is killed and
        respawned — liveness is "answers requests", not "has a pid".
        """
        last_probe = time.monotonic()
        while True:
            await asyncio.sleep(0.25)
            dead = [
                worker
                for worker in self._workers
                if not (
                    self._stopping
                    or worker.draining
                    or worker.alive
                    or worker.process is None
                )
            ]
            # Spawn every dead slot before awaiting any port: when a
            # fault takes several workers at once, serial respawns
            # would leave the later slots down for the sum of all the
            # earlier boots.
            for worker in dead:
                worker.restarts += 1
                self._spawn(worker)

            async def _absorb(worker: WorkerProcess) -> None:
                with contextlib.suppress(SupervisorError):
                    await self._await_port(worker)

            if dead:
                await asyncio.gather(*(_absorb(worker) for worker in dead))
            now = time.monotonic()
            if now - last_probe >= HEALTH_INTERVAL:
                last_probe = now
                await self._probe_health()

    async def _probe_health(self) -> None:
        for worker in self._workers:
            if (
                self._stopping
                or worker.draining
                or not worker.alive
                or worker.port is None
            ):
                continue
            try:
                response = await asyncio.wait_for(
                    self._request_worker(worker, "GET", "/healthz"),
                    timeout=HEALTH_TIMEOUT,
                )
                ok = response.status == 200
            except (asyncio.TimeoutError, *_TRANSPORT_ERRORS):
                ok = False
            if ok:
                worker.health_fails = 0
                continue
            worker.health_fails += 1
            if worker.health_fails < HEALTH_FAIL_THRESHOLD:
                continue
            self._unhealthy_restarts += 1
            worker.health_fails = 0
            worker.restarts += 1
            self._kill(worker)
            self._spawn(worker)
            with contextlib.suppress(SupervisorError):
                await self._await_port(worker)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    async def _route(self, request: HttpRequest) -> HttpResponse:
        try:
            return await self._dispatch(request)
        except HttpError as error:
            return error.response()
        except _TRANSPORT_ERRORS as error:
            # The routed worker died mid-request; the monitor will
            # respawn it.  Tell the client to retry rather than hang.
            return error_response(
                503, "unavailable", f"worker unavailable: {error}"
            )

    async def _dispatch(self, request: HttpRequest) -> HttpResponse:
        """Answer a fleet-level route here; proxy the rest to an owner."""
        route, params = routes.match(request.path)
        if route is not None and route.tier != "worker":
            if route.method not in (None, request.method):
                raise HttpError(405, f"use {route.method} for this resource")
            handler = getattr(self, f"_serve_{route.name}")
            return await handler(request, **params)
        if "table" in params and not self._fingerprints:
            await self._refresh_catalog()
        return await self._forward_resilient(
            self._slots_for(request, route, params), request
        )

    def _slots_for(
        self,
        request: HttpRequest,
        route: routes.Route | None,
        params: dict[str, str],
    ) -> list[int]:
        """Preference-ordered slots: the owner, then its ring successor
        (the failover target for idempotent requests).

        The owner is named by the route's first routing-key parameter
        the request carries — in its path, else in its JSON body; a
        request that names no content places by its path.
        """
        names = route.key if route is not None else ()
        body: dict[str, object] = {}
        if request.body and any(name not in params for name in names):
            with contextlib.suppress(HttpError):
                body = request.json()
        for name in names:
            value = params.get(name, body.get(name))
            if isinstance(value, str) and value:
                if name == "table":
                    value = self._fingerprint(value)
                return self._ring.owners(f"{name}:{value}", 2)
        return self._ring.owners(
            f"path:{request.path.rstrip('/') or '/'}", 2
        )

    def _fingerprint(self, ref: str) -> str:
        """Resolve a table name to its content fingerprint (best effort).

        The catalog map is filled by :meth:`_serve_healthz` /
        :meth:`_refresh_catalog`; an unresolved name still routes
        deterministically on its own spelling.
        """
        return self._fingerprints.get(ref, ref)

    async def _refresh_catalog(self) -> None:
        """Re-learn name → fingerprint from any live worker."""
        for worker in self._workers:
            if worker.port is None:
                continue
            try:
                response = await self._request_worker(
                    worker, "GET", "/v1/tables"
                )
                payload = json.loads(response.body.decode("utf-8"))
            except (ValueError, *_TRANSPORT_ERRORS):
                continue
            records = payload.get("catalog", [])
            if isinstance(records, list):
                for record in records:
                    if isinstance(record, dict):
                        name = str(record.get("name", ""))
                        fingerprint = str(record.get("fingerprint", ""))
                        if name and fingerprint:
                            self._fingerprints[name] = fingerprint
                return

    # ------------------------------------------------------------------
    # Proxying
    # ------------------------------------------------------------------

    async def _forward_resilient(
        self, slots: list[int], request: HttpRequest
    ) -> HttpResponse:
        """Forward with retry + failover for idempotent requests.

        The owner slot is tried first.  When the exchange fails at the
        transport level (worker died mid-request, connection refused),
        an idempotent request — GET/HEAD; these either hit caches or
        recompute deterministically — is retried once against the owner
        (it may have respawned) with jittered backoff, then failed over
        to the ring's next slot.  Non-idempotent requests (sticky
        session commands) are never replayed; the client gets a 503
        with ``Retry-After``.

        A retry *budget* (token bucket fed by first attempts) caps
        retry volume at a fraction of live traffic so a fleet-wide
        outage degrades to fast 503s instead of a retry storm.
        """
        deadline_header = request.headers.get("x-blaeu-deadline")
        give_up: float | None = None
        if deadline_header is not None:
            with contextlib.suppress(ValueError):
                give_up = time.monotonic() + float(deadline_header)
        idempotent = request.method in ("GET", "HEAD")
        # Four attempts ride out a double failure (both candidate slots
        # lost mid-exchange in the same window): the later attempts land
        # on respawned processes.  Non-idempotent requests get exactly
        # one delivery.
        max_attempts = 4 if idempotent else 1
        self._retry_budget.record_request()
        last_error: Exception | None = None
        tried: list[int] = []
        for attempt in range(max_attempts):
            # Routability is re-evaluated per attempt: a slot that died
            # mid-loop is skipped, and a slot the monitor just respawned
            # becomes eligible again.  Known-dead slots never consume
            # the retry budget — only genuine mid-request failures do.
            # When every candidate is down at once, wait for the monitor
            # to respawn one (a worker boot, not an outage, is the
            # common cause) instead of failing fast against dead ports.
            await self._await_any_up(slots, give_up)
            slot = self._choose_slot(slots, tried)
            tried.append(slot)
            if attempt > 0:
                # A retry against a port nobody listens on costs the
                # fleet nothing, so connection-refused failures don't
                # charge the budget; only mid-exchange failures (the
                # worker took the request and died) do — those are the
                # ones a storm would amplify.
                charged = not isinstance(last_error, ConnectionRefusedError)
                if charged and not self._retry_budget.try_spend():
                    self._retry_exhausted += 1
                    break
                delay = jittered_backoff(
                    attempt - 1, base=0.05, rng=self._retry_rng
                )
                if give_up is not None and (
                    time.monotonic() + delay >= give_up
                ):
                    break
                await asyncio.sleep(delay)
                self._retries += 1
                if slot != slots[0]:
                    self._failovers += 1
            try:
                response = await self._forward(slot, request)
            except _TRANSPORT_ERRORS as error:
                last_error = error
                continue
            if attempt > 0:
                self._retry_successes += 1
            return response
        if give_up is not None and time.monotonic() >= give_up:
            raise HttpError(
                504,
                f"deadline exhausted retrying a failed worker: {last_error}",
                "deadline_exceeded",
            )
        raise HttpError(
            503,
            f"worker unavailable: {last_error}",
            "unavailable",
            headers={"Retry-After": "1"},
        )

    def _routable(self, slot: int) -> bool:
        """Whether a slot is believed able to answer right now."""
        worker = self._workers[slot]
        return (
            not worker.draining and worker.port is not None and worker.alive
        )

    def _booting(self, slot: int) -> bool:
        """Whether a slot is alive but still announcing its port."""
        worker = self._workers[slot]
        return not worker.draining and worker.port is None and worker.alive

    def _choose_slot(self, preference: list[int], tried: list[int]) -> int:
        """The next slot to try: routable first, then booting, untried
        before retried.

        A booting slot (respawned process, port not yet announced)
        outranks a dead one — :meth:`_forward` waits out the boot, so
        the request lands slow instead of failing fast.  The raw
        preference order is the last resort when the whole candidate
        set is down.
        """
        routable = [slot for slot in preference if self._routable(slot)]
        booting = [slot for slot in preference if self._booting(slot)]
        pool = (routable + booting) or preference
        for slot in pool:
            if slot not in tried:
                return slot
        return pool[0]

    async def _await_any_up(
        self, preference: list[int], give_up: float | None
    ) -> None:
        """Wait until some candidate slot is routable or booting.

        Bounded by the request deadline and by ``SPAWN_TIMEOUT`` (the
        time a respawn is entitled to) — on expiry the caller proceeds
        and takes the connection error.
        """
        cap = time.monotonic() + SPAWN_TIMEOUT
        if give_up is not None:
            cap = min(cap, give_up)
        while time.monotonic() < cap:
            if any(
                self._routable(slot) or self._booting(slot)
                for slot in preference
            ):
                return
            await asyncio.sleep(0.05)

    async def _forward(
        self, slot: int, request: HttpRequest
    ) -> HttpResponse:
        worker = self._worker(slot)
        if worker.draining:
            raise ConnectionError(f"worker {slot} is draining")
        if worker.port is None:
            try:
                await self._await_port(worker)
            except SupervisorError as error:
                raise ConnectionError(str(error)) from error
        worker.in_flight += 1
        try:
            response = await self._request_worker(
                worker,
                request.method,
                request.target,
                headers=request.headers,
                body=request.body,
            )
        finally:
            worker.in_flight -= 1
        response.headers["X-Blaeu-Worker"] = str(slot)
        return response

    async def _request_worker(
        self,
        worker: WorkerProcess,
        method: str,
        target: str,
        headers: dict[str, str] | None = None,
        body: bytes = b"",
    ) -> HttpResponse:
        """One HTTP exchange with a worker over a pooled keep-alive
        connection.

        The connection is a reusable idle one of the slot's
        (:meth:`_reusable`), else a new one.  It goes back to the pool
        only after a complete, length-framed response that says
        ``keep-alive``; a failed or cancelled exchange (a health probe's
        timeout too) closes it and raises as a fresh connection would,
        so retry, failover and one delivery per session command are what
        they are without the pool.
        """
        connection = await self._connection(worker)
        lines = [f"{method} {target} HTTP/1.1", "Host: 127.0.0.1"]
        for name, value in (headers or {}).items():
            if name.lower() not in _HOP_HEADERS:
                lines.append(f"{name}: {value}")
        lines.append(f"Content-Length: {len(body)}")
        try:
            connection.writer.write(
                ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body
            )
            await connection.writer.drain()
            status, response_headers, response_body = await read_response(
                connection.reader
            )
        except BaseException:
            connection.writer.close()
            raise
        connection.idle_since = time.monotonic()
        if (
            response_headers.get("connection", "").lower() == "keep-alive"
            and len(worker.idle) < self._max_idle
            and self._reusable(worker, connection, connection.idle_since)
        ):
            worker.idle.append(connection)
        else:
            connection.writer.close()
        passthrough = {
            name: value
            for name, value in response_headers.items()
            if name == "x-blaeu-trace"
        }
        return HttpResponse(
            status=status,
            body=response_body,
            content_type=response_headers.get(
                "content-type", "application/json; charset=utf-8"
            ),
            headers=passthrough,
        )

    async def _connection(self, worker: WorkerProcess) -> _Connection:
        """The slot's most recent reusable idle connection, else a new
        one (stale idle ones met on the way are closed)."""
        if worker.port is None:
            raise ConnectionError(f"worker {worker.slot} has no port")
        now = time.monotonic()
        while worker.idle:
            connection = worker.idle.pop()
            if self._reusable(worker, connection, now):
                return connection
            connection.writer.close()
        generation = worker.generation
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", worker.port
        )
        worker.connections_opened += 1
        return _Connection(reader, writer, generation)

    def _reusable(
        self, worker: WorkerProcess, connection: _Connection, now: float
    ) -> bool:
        """Whether a connection may carry another exchange at ``now``.

        Not after its worker was respawned or restarted — a generation
        mismatch, since a replacement may bind a recycled port — nor
        while the slot drains, nor once the worker may have timed it
        out.
        """
        return (
            connection.generation == worker.generation
            and not worker.draining
            and now - connection.idle_since < self._idle_limit
        )

    # ------------------------------------------------------------------
    # Aggregated endpoints
    # ------------------------------------------------------------------

    async def _fan_out(
        self, method: str, target: str
    ) -> list[tuple[WorkerProcess, HttpResponse | None]]:
        async def one(worker: WorkerProcess) -> HttpResponse | None:
            try:
                return await self._request_worker(worker, method, target)
            except _TRANSPORT_ERRORS:
                return None

        responses = await asyncio.gather(
            *(one(worker) for worker in self._workers)
        )
        return list(zip(self._workers, responses))

    async def _serve_healthz(self, request: HttpRequest) -> HttpResponse:
        await self._refresh_catalog()
        results = await self._fan_out("GET", "/healthz")
        workers = []
        tables = 0
        for worker, response in results:
            healthy = response is not None and response.status == 200
            entry: dict[str, object] = {
                "slot": worker.slot,
                "port": worker.port,
                "healthy": healthy,
                "generation": worker.generation,
                "restarts": worker.restarts,
            }
            if healthy:
                payload = json.loads(response.body.decode("utf-8"))
                entry["sessions"] = payload.get("sessions", 0)
                tables = max(tables, int(payload.get("tables", 0)))
            workers.append(entry)
        healthy_count = sum(1 for entry in workers if entry["healthy"])
        uptime = (
            time.monotonic() - self._started_at
            if self._started_at is not None
            else 0.0
        )
        return json_response(
            {
                "ok": healthy_count == self._n_workers,
                "status": "healthy" if healthy_count else "down",
                "uptime_seconds": round(uptime, 3),
                "tables": tables,
                "workers": workers,
            },
            200 if healthy_count else 503,
        )

    async def _serve_metrics(self, request: HttpRequest) -> HttpResponse:
        results = await self._fan_out("GET", "/metrics")
        bodies = [
            (worker.slot, response.body.decode("utf-8"))
            for worker, response in results
            if response is not None and response.status == 200
        ]
        extra = ["# TYPE blaeu_worker_up gauge"]
        extra.extend(
            f'blaeu_worker_up{{slot="{worker.slot}"}} '
            f"{1 if response is not None else 0}"
            for worker, response in results
        )
        extra.append("# TYPE blaeu_worker_restarts_total counter")
        extra.append(
            "blaeu_worker_restarts_total "
            f"{sum(worker.restarts for worker in self._workers)}"
        )
        extra.append("# TYPE blaeu_supervisor_workers gauge")
        extra.append(f"blaeu_supervisor_workers {self._n_workers}")
        for name, value in (
            ("blaeu_resilience_proxy_retries_total", self._retries),
            (
                "blaeu_resilience_proxy_retry_successes_total",
                self._retry_successes,
            ),
            ("blaeu_resilience_proxy_failovers_total", self._failovers),
            (
                "blaeu_resilience_proxy_retry_exhausted_total",
                self._retry_exhausted,
            ),
            (
                "blaeu_resilience_unhealthy_restarts_total",
                self._unhealthy_restarts,
            ),
        ):
            extra.append(f"# TYPE {name} counter")
            extra.append(f"{name} {value}")
        return text_response(merge_metrics(bodies, extra))

    async def _serve_traces(self, request: HttpRequest) -> HttpResponse:
        limit = request.query_int("limit", default=10, minimum=1)
        results = await self._fan_out("GET", f"/v1/traces?limit={limit}")
        traces: list[dict[str, object]] = []
        enabled = False
        for worker, response in results:
            if response is None or response.status != 200:
                continue
            payload = json.loads(response.body.decode("utf-8"))
            enabled = enabled or bool(payload.get("enabled", False))
            for trace in payload.get("traces", []):
                if isinstance(trace, dict):
                    trace["worker"] = worker.slot
                    traces.append(trace)
        return json_response(
            {"ok": True, "enabled": enabled, "traces": traces[:limit]}
        )

    async def _serve_restart(
        self, request: HttpRequest, slot: str
    ) -> HttpResponse:
        try:
            index = int(slot)
        except ValueError:
            raise HttpError(404, f"no worker slot {slot!r}") from None
        await self.restart(index)
        worker = self._worker(index)
        return json_response(
            {
                "ok": True,
                "slot": worker.slot,
                "port": worker.port,
                "generation": worker.generation,
                "restarts": worker.restarts,
            }
        )

    async def _serve_workers(self, request: HttpRequest) -> HttpResponse:
        return json_response(
            {
                "ok": True,
                "workers": [
                    {
                        "slot": worker.slot,
                        "port": worker.port,
                        "alive": worker.alive,
                        "pid": (
                            worker.process.pid
                            if worker.process is not None
                            else None
                        ),
                        "generation": worker.generation,
                        "restarts": worker.restarts,
                        "draining": worker.draining,
                        "connections_opened": worker.connections_opened,
                        "connections_idle": len(worker.idle),
                    }
                    for worker in self._workers
                ],
            }
        )
