"""Chaos benchmark — availability and determinism under injected faults.

Boots the ``--workers 2`` supervisor fleet twice over the same tables:
once clean, once with a deterministic fault cocktail (``--faults``):

* L2 artifact reads fail ~10% of the time and stall another ~5%
  (the disk circuit breaker's diet),
* L2 artifact writes tear ~5% of the time (checksum quarantine path),
* each worker process ``os._exit``\\ s mid-request once, after its 15th
  request (the proxy's retry/failover + respawn path).

The same recorded GET trace (every ``(table, k)`` map, several rounds,
concurrent clients, each request carrying an ``X-Blaeu-Deadline``
budget) replays against both fleets.  Recorded and asserted:

* ``chaos_error_rate`` — failed requests under faults; must stay
  under 1% (the proxy retries idempotent GETs against the respawned
  worker or the ring's next slot, so injected kills are absorbed),
* deadline compliance — every response lands within its budget,
* bit-identity — every map's *structure* (regions, predicates, k,
  exemplars) under faults must equal the fault-free run's at the same
  seed; only count freshness may differ (refinement/degradation
  timing), which is exactly the degraded-mode contract,
* the resilience counters (proxy retries, injected faults) must be
  visible in the chaos fleet's ``/metrics``.

Run directly (``--smoke`` shrinks the workload for CI)::

    PYTHONPATH=src python benchmarks/bench_chaos.py --smoke
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"
SRC = Path(__file__).resolve().parents[1] / "src"
ENV = {**os.environ, "PYTHONPATH": str(SRC)}

#: The injected-fault cocktail (see module docstring).  Deterministic:
#: every firing decision is a hash of (seed, site, spec, hit index).
FAULTS = json.dumps(
    {
        "seed": 2016,
        "faults": [
            {"site": "store.artifact.read", "mode": "error", "rate": 0.10},
            {
                "site": "store.artifact.read",
                "mode": "latency",
                "rate": 0.05,
                "seconds": 0.02,
            },
            {"site": "store.artifact.write", "mode": "torn", "rate": 0.05},
            {
                "site": "worker.request",
                "mode": "kill",
                "after": 15,
                "count": 1,
            },
        ],
    }
)

#: Per-request budget (seconds) carried as ``X-Blaeu-Deadline``.
DEADLINE_SECONDS = 60.0

#: Map-payload keys that legitimately differ across runs: counts are
#: refined (approximate -> exact) in the background and may be served
#: degraded under load, so only the map *structure* is gated.
COUNT_KEYS = frozenset({"n_rows", "n_rows_error", "counts_status"})


def _write_tables(directory: Path, n_tables: int, n_rows: int) -> list[str]:
    """Clusterable CSVs with distinct content (→ distinct fingerprints)."""
    import numpy as np

    directory.mkdir(parents=True, exist_ok=True)
    names = []
    for index in range(n_tables):
        rng = np.random.default_rng(700 + index)
        labels = rng.integers(0, 3, size=n_rows)
        columns = {
            "x": labels * 5.0 + rng.normal(0.0, 0.6, n_rows),
            "y": labels * -4.0 + rng.normal(0.0, 0.6, n_rows),
            "z": rng.normal(0.0, 1.0, n_rows),
        }
        path = directory / f"t{index}.csv"
        with path.open("w", encoding="utf-8") as handle:
            handle.write("x,y,z\n")
            for row in zip(*(v.tolist() for v in columns.values())):
                handle.write(",".join(repr(v) for v in row) + "\n")
        names.append(f"t{index}")
    return names


def _structure(payload: object) -> object:
    """A map payload with every count-freshness key stripped, recursively."""
    if isinstance(payload, dict):
        return {
            key: _structure(value)
            for key, value in payload.items()
            if key not in COUNT_KEYS
        }
    if isinstance(payload, list):
        return [_structure(item) for item in payload]
    return payload


class Serve:
    """One ``python -m repro serve`` process (worker fleet or single)."""

    def __init__(self, argv: list[str]) -> None:
        self._process = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", *argv],
            env=ENV,
            stdout=subprocess.PIPE,
            # stderr inherits: quiet in normal runs, and a worker's
            # traceback stays visible when one dies.
            stderr=None,
            text=True,
        )
        assert self._process.stdout is not None
        banner = self._process.stdout.readline()
        match = re.search(r"http://127\.0\.0\.1:(\d+)", banner)
        if not match:
            self._process.kill()
            raise RuntimeError(f"unexpected serve banner: {banner!r}")
        self.port = int(match.group(1))
        self._await_healthy()

    def _await_healthy(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                with urllib.request.urlopen(
                    f"http://127.0.0.1:{self.port}/healthz", timeout=5
                ) as response:
                    if json.loads(response.read())["ok"]:
                        return
            except OSError:
                time.sleep(0.1)
        raise RuntimeError("serve never became healthy")

    def get(
        self,
        path: str,
        timeout: float = 300.0,
        headers: dict[str, str] | None = None,
        raw: bool = False,
    ):
        request = urllib.request.Request(
            f"http://127.0.0.1:{self.port}{path}", headers=headers or {}
        )
        with urllib.request.urlopen(request, timeout=timeout) as response:
            body = response.read()
        return body.decode("utf-8") if raw else json.loads(body)

    def close(self) -> None:
        self._process.terminate()
        try:
            self._process.wait(timeout=15)
        except subprocess.TimeoutExpired:  # pragma: no cover
            self._process.kill()
            self._process.wait(timeout=15)


def _replay(
    server: Serve,
    tables: list[str],
    k_values: tuple[int, ...],
    rounds: int,
    n_clients: int,
) -> dict[str, object]:
    """Replay the recorded GET trace concurrently; measure everything."""
    jobs = [
        (round_index, table, k)
        for round_index in range(rounds)
        for table in tables
        for k in k_values
    ]
    headers = {"X-Blaeu-Deadline": str(DEADLINE_SECONDS)}
    lock = threading.Lock()
    queue = list(reversed(jobs))
    latencies: list[float] = []
    failures: list[str] = []
    degraded = 0
    structures: dict[str, object] = {}

    def worker() -> None:
        nonlocal degraded
        while True:
            with lock:
                if not queue:
                    return
                round_index, table, k = queue.pop()
            started = time.perf_counter()
            try:
                payload = server.get(
                    f"/v1/tables/{table}/map?k={k}", headers=headers
                )
                elapsed = time.perf_counter() - started
                assert payload["ok"], payload
                with lock:
                    latencies.append(elapsed)
                    if payload.get("degraded"):
                        degraded += 1
                    # First-round (cold) responses are the identity
                    # witnesses — both fleets build them from scratch.
                    if round_index == 0:
                        structures[f"{table}:k{k}"] = _structure(
                            payload["map"]
                        )
            except Exception as error:  # noqa: BLE001 - tallied below
                detail = repr(error)
                if isinstance(error, urllib.error.HTTPError):
                    with lock:  # .read() is single-shot; keep it ordered
                        detail += " " + error.read().decode(
                            "utf-8", "replace"
                        )
                with lock:
                    latencies.append(time.perf_counter() - started)
                    failures.append(
                        f"r{round_index} {table} k={k}: {detail}"
                    )

    threads = [
        threading.Thread(target=worker, daemon=True)
        for _ in range(min(n_clients, len(jobs)))
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=600)
    elapsed = time.perf_counter() - started
    ordered = sorted(latencies)
    violations = sum(1 for lat in latencies if lat > DEADLINE_SECONDS)
    return {
        "n_requests": len(jobs),
        "n_failures": len(failures),
        "failures": failures[:5],
        "error_rate": len(failures) / len(jobs),
        "degraded": degraded,
        "deadline_violations": violations,
        "wall_seconds": elapsed,
        "p50_seconds": ordered[len(ordered) // 2] if ordered else 0.0,
        "p99_seconds": ordered[int(len(ordered) * 0.99)] if ordered else 0.0,
        "structures": structures,
    }


def _metric_total(metrics_text: str, name: str) -> float:
    """Sum every sample of ``name`` (labeled or not) in exposition text."""
    total = 0.0
    for line in metrics_text.splitlines():
        if line.startswith(name) and not line.startswith("#"):
            with_label = re.match(rf"{re.escape(name)}(?:\{{[^}}]*\}})? (\S+)", line)
            if with_label:
                total += float(with_label.group(1))
    return total


def run_benchmark(smoke: bool) -> dict[str, object]:
    n_tables = 3 if smoke else 4
    n_rows = 1_200 if smoke else 2_500
    k_values = (2, 3)
    rounds = 8 if smoke else 12
    n_clients = 4

    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        tables = _write_tables(directory / "data", n_tables, n_rows)
        csvs = [str(directory / "data" / f"{name}.csv") for name in tables]
        common = [
            "--port",
            "0",
            "--workers",
            "2",
            "--threads",
            "2",
            "--cache-size",
            "64",
        ]

        # Clean reference fleet: same topology, no faults.
        clean = Serve(
            [*common, "--cache-dir", str(directory / "cache-clean"), *csvs]
        )
        try:
            clean_run = _replay(clean, tables, k_values, rounds, n_clients)
        finally:
            clean.close()

        # Chaos fleet: identical trace under the injected-fault cocktail.
        chaos = Serve(
            [
                *common,
                "--cache-dir",
                str(directory / "cache-chaos"),
                "--faults",
                FAULTS,
                *csvs,
            ]
        )
        try:
            chaos_run = _replay(chaos, tables, k_values, rounds, n_clients)
            metrics_text = chaos.get("/metrics", raw=True)
        finally:
            chaos.close()

    assert not clean_run["n_failures"], (
        f"fault-free run failed requests: {clean_run['failures']}"
    )

    differing = [
        key
        for key in clean_run["structures"]
        if chaos_run["structures"].get(key) != clean_run["structures"][key]
    ]
    if differing:
        raise AssertionError(
            f"map structure diverged under faults at the same seed: "
            f"{differing[:5]} — injected faults must never change results"
        )

    retries = _metric_total(
        metrics_text, "blaeu_resilience_proxy_retries_total"
    )
    injected = _metric_total(metrics_text, "blaeu_faults_injected_total")
    error_rate = float(chaos_run["error_rate"])
    assert error_rate < 0.01, (
        f"chaos error rate {error_rate:.2%} breaches the 1% budget: "
        f"{chaos_run['failures']}"
    )
    assert chaos_run["deadline_violations"] == 0, (
        f"{chaos_run['deadline_violations']} responses blew their "
        f"{DEADLINE_SECONDS:.0f}s deadline under faults"
    )
    assert injected > 0, (
        "the chaos run injected no faults — the harness is not wired in"
    )
    return {
        "benchmark": "chaos",
        "smoke": smoke,
        "n_tables": n_tables,
        "n_rows": n_rows,
        "rounds": rounds,
        "n_requests": chaos_run["n_requests"],
        "deadline_seconds": DEADLINE_SECONDS,
        "clean_wall_seconds": round(float(clean_run["wall_seconds"]), 4),
        "chaos_wall_seconds": round(float(chaos_run["wall_seconds"]), 4),
        "clean_p99_seconds": round(float(clean_run["p99_seconds"]), 4),
        "chaos_p99_seconds": round(float(chaos_run["p99_seconds"]), 4),
        "chaos_error_rate": round(float(chaos_run["error_rate"]), 5),
        "chaos_failures": chaos_run["failures"],
        "chaos_degraded": chaos_run["degraded"],
        "chaos_deadline_violations": chaos_run["deadline_violations"],
        "proxy_retries": retries,
        "faults_injected": injected,
        "availability": round(1.0 - float(chaos_run["error_rate"]), 5),
        "maps_identical": True,
    }


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
    out_path = RESULTS_DIR / "bench_chaos.json"
    out_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out_path}")

    print(
        f"OK: {record['n_requests']} requests under faults — "
        f"{record['availability']:.2%} available, "
        f"{record['faults_injected']:.0f} faults injected, "
        f"{record['proxy_retries']:.0f} proxy retries, "
        f"p99 {record['chaos_p99_seconds']}s; map structures bit-identical "
        f"to the fault-free fleet"
    )


if __name__ == "__main__":
    main()
