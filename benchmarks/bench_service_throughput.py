"""Serving-layer benchmark — cold vs warm cache, concurrent throughput.

Acceptance criteria from the service PR:

* warm-cache map requests are >= 10x faster than cold ones (the shared
  LRU cache turns a CLARA/PAM + CART run into a lookup), and
* the service handles >= 32 concurrent clients without event-loop
  stalls — measured by probing ``/healthz`` *while* the clients hammer
  map endpoints and checking the probe latency stays interactive.

Run it directly (``--smoke`` shrinks the workload for CI)::

    PYTHONPATH=src python benchmarks/bench_service_throughput.py

Results go to stdout as one ``BENCH {json}`` line — the repo's standard
machine-readable benchmark record — and to
``benchmarks/results/bench_service_throughput.json``.
"""

from __future__ import annotations

import argparse
import asyncio
import http.client
import json
import statistics
import threading
import time
from pathlib import Path

from repro.core.config import BlaeuConfig
from repro.core.engine import Blaeu
from repro.datasets.synthetic import mixed_blobs
from repro.service.app import BlaeuService, PoolConfig, ServiceConfig

RESULTS_DIR = Path(__file__).parent / "results"


class ServiceThread:
    """Runs a :class:`BlaeuService` event loop on a background thread."""

    def __init__(self, engine: Blaeu, config: ServiceConfig) -> None:
        self._engine = engine
        self._config = config
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self.service: BlaeuService | None = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "ServiceThread":
        self._thread.start()
        if not self._ready.wait(timeout=15):
            raise RuntimeError("service failed to start within 15s")
        return self

    def __exit__(self, *exc_info: object) -> None:
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


class Client:
    """A keep-alive HTTP client issuing protocol commands."""

    def __init__(self, port: int) -> None:
        self._conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def request(
        self, method: str, path: str, body: dict | None = None
    ) -> tuple[int, dict]:
        payload = json.dumps(body).encode() if body is not None else None
        self._conn.request(
            method,
            path,
            body=payload,
            headers={"Content-Type": "application/json"} if payload else {},
        )
        response = self._conn.getresponse()
        return response.status, json.loads(response.read())

    def close(self) -> None:
        self._conn.close()


def _timed_open(client: Client, session_id: str, table: str) -> float:
    started = time.perf_counter()
    status, payload = client.request(
        "POST",
        "/v1/commands/open",
        {"session": session_id, "table": table, "theme": 0},
    )
    elapsed = time.perf_counter() - started
    assert status == 200, payload
    return elapsed


def _client_workload(
    port: int, client_index: int, table: str, n_rounds: int
) -> tuple[int, float]:
    """One simulated analyst: open, inspect, re-map; returns (requests, max_latency)."""
    client = Client(port)
    requests = 0
    slowest = 0.0
    try:
        for round_index in range(n_rounds):
            session = f"bench-c{client_index}-r{round_index}"
            for method, path, body in (
                ("POST", "/v1/commands/open", {"session": session, "table": table, "theme": 0}),
                ("POST", "/v1/commands/map", {"session": session}),
                ("POST", "/v1/commands/sql", {"session": session}),
                ("POST", "/v1/commands/history", {"session": session}),
                ("POST", "/v1/commands/close", {"session": session}),
            ):
                started = time.perf_counter()
                status, payload = client.request(method, path, body)
                slowest = max(slowest, time.perf_counter() - started)
                assert status == 200, (path, payload)
                requests += 1
    finally:
        client.close()
    return requests, slowest


def run_benchmark(smoke: bool) -> dict[str, object]:
    n_rows = 5_000 if smoke else 20_000
    n_clients = 8 if smoke else 32
    n_rounds = 2 if smoke else 3
    n_warm = 10 if smoke else 30

    engine_config = BlaeuConfig(map_k_values=(2, 3, 4), seed=7)
    engine = Blaeu(engine_config)
    engine.register(mixed_blobs(n_rows=n_rows, k=3, seed=11).table)
    table = engine.tables()[0]

    with ServiceThread(
        engine,
        ServiceConfig(
            port=0,
            pool=PoolConfig(threads=4, max_pending=n_clients * 4 + 8),
        ),
    ) as running:
        port = running.port
        client = Client(port)

        # Theme extraction is not what we measure; prime it.
        status, _ = client.request("POST", "/v1/commands/themes", {"table": table})
        assert status == 200

        # Cold: the very first map build, cache empty.
        cold_seconds = _timed_open(client, "bench-cold", table)

        # Warm: same action path, fresh sessions -> shared-cache hits.
        warm_samples = [
            _timed_open(client, f"bench-warm-{i}", table) for i in range(n_warm)
        ]
        warm_seconds = statistics.median(warm_samples)
        client.close()

        # Concurrency: n_clients hammer map endpoints while a probe
        # checks the event loop stays responsive via /healthz.
        probe_latencies: list[float] = []
        stop_probe = threading.Event()

        def probe() -> None:
            probe_client = Client(port)
            try:
                while not stop_probe.is_set():
                    started = time.perf_counter()
                    status, _ = probe_client.request("GET", "/healthz")
                    probe_latencies.append(time.perf_counter() - started)
                    assert status == 200
                    time.sleep(0.01)
            finally:
                probe_client.close()

        prober = threading.Thread(target=probe, daemon=True)
        results: list[tuple[int, float]] = []
        failures: list[str] = []

        def run_client(index: int) -> None:
            try:
                results.append(_client_workload(port, index, table, n_rounds))
            except Exception as error:  # noqa: BLE001 - reported below
                failures.append(f"client {index}: {error!r}")

        workers = [
            threading.Thread(target=run_client, args=(i,), daemon=True)
            for i in range(n_clients)
        ]
        prober.start()
        concurrent_started = time.perf_counter()
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
        concurrent_seconds = time.perf_counter() - concurrent_started
        stop_probe.set()
        prober.join(timeout=10)

        assert not failures, f"client workloads failed: {failures[:5]}"
        assert len(results) == n_clients, (
            f"only {len(results)}/{n_clients} clients finished within the "
            "timeout"
        )
        total_requests = sum(count for count, _ in results)
        cache_stats = running.service.cache.stats()

    speedup = cold_seconds / warm_seconds if warm_seconds else float("inf")
    record: dict[str, object] = {
        "benchmark": "service_throughput",
        "smoke": smoke,
        "n_rows": n_rows,
        "n_clients": n_clients,
        "cold_open_seconds": round(cold_seconds, 6),
        "warm_open_seconds_median": round(warm_seconds, 6),
        "warm_cold_speedup": round(speedup, 2),
        "concurrent_requests": total_requests,
        "concurrent_seconds": round(concurrent_seconds, 3),
        "throughput_rps": round(total_requests / concurrent_seconds, 1),
        "healthz_probe_max_seconds": round(max(probe_latencies), 6)
        if probe_latencies
        else None,
        "healthz_probe_median_seconds": round(
            statistics.median(probe_latencies), 6
        )
        if probe_latencies
        else None,
        "cache_hits": cache_stats.hits,
        "cache_misses": cache_stats.misses,
        "cache_hit_rate": round(cache_stats.hit_rate, 4),
    }
    return record


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small workload with relaxed thresholds (CI)",
    )
    args = parser.parse_args()

    record = run_benchmark(smoke=args.smoke)
    print("BENCH " + json.dumps(record, sort_keys=True))
    RESULTS_DIR.mkdir(exist_ok=True)
    out_path = RESULTS_DIR / "bench_service_throughput.json"
    out_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out_path}")

    min_speedup = 3.0 if args.smoke else 10.0
    speedup = float(record["warm_cold_speedup"])
    assert speedup >= min_speedup, (
        f"warm-cache speedup {speedup:.1f}x below the {min_speedup:.0f}x bar"
    )
    probe_max = record["healthz_probe_max_seconds"]
    assert probe_max is not None and float(probe_max) < 1.0, (
        f"event loop stalled: /healthz took {probe_max}s under load"
    )
    print(
        f"OK: {record['n_clients']} concurrent clients, "
        f"{record['throughput_rps']} req/s, warm cache {speedup:.0f}x "
        f"faster than cold, /healthz max {probe_max}s under load"
    )


if __name__ == "__main__":
    main()
