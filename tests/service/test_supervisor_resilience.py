"""Chaos tests: the supervisor fleet under injected worker faults.

Every test boots the real ``python -m repro serve --workers 2`` stack
with a deterministic fault cocktail armed (``BLAEU_FAULTS`` in the
environment, or ``--faults``) and asserts the client-visible contract:
requests keep succeeding — and keep answering the same maps — while
workers are killed or wedged and the disk tier misbehaves underneath
them.
"""

from __future__ import annotations

import json
import socket
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

FLEET = ["--workers", "2", "--threads", "2"]


def _metric(base: str, name: str) -> float:
    """The sum of ``name``'s samples on the fleet's ``/metrics``."""
    with urllib.request.urlopen(f"{base}/metrics", timeout=10) as response:
        lines = response.read().decode().splitlines()
    samples = [line for line in lines if line.startswith(name) and " " in line]
    return sum(float(line.rsplit(" ", 1)[1]) for line in samples)


def test_worker_kill_mid_request_is_absorbed_by_retries(
    csv_path, serving, fetch, serve_env
):
    # Every worker process os._exit(137)s in the middle of its third
    # routed request — and because respawned processes re-arm the
    # injector, the kills keep rolling.  The client must never notice:
    # the proxy retries the idempotent GET against the respawned worker
    # (or fails over to the ring's other slot).
    faults = {
        "seed": 11,
        "faults": [{"site": "worker.request", "mode": "kill", "after": 2, "count": 1}],
    }
    env = {**serve_env, "BLAEU_FAULTS": json.dumps(faults)}
    with serving([*FLEET, "--cache-size", "16", str(csv_path)], env) as (base, _):
        for index in range(10):
            payload = fetch(f"{base}/v1/tables/points/map?k={2 + index % 2}", 120)
            assert payload["ok"] is True, f"request {index} failed"

        assert _metric(base, "blaeu_resilience_proxy_retries_total") > 0
        assert _metric(base, "blaeu_resilience_proxy_retry_successes_total") > 0


def test_hung_worker_is_respawned_by_health_probes(
    csv_path, serving, fetch, serve_env
):
    # ``hang`` parks the worker's event loop for an hour mid-request: the
    # process stays alive, so only the supervisor's active /healthz
    # probes (1s interval, 2 strikes) can notice and respawn it.
    hang = {
        "site": "worker.request",
        "mode": "hang",
        "after": 1,
        "count": 1,
        "seconds": 3600,
    }
    env = {**serve_env, "BLAEU_FAULTS": json.dumps({"seed": 12, "faults": [hang]})}
    with serving([*FLEET, "--cache-size", "16", str(csv_path)], env) as (base, _):
        # First routed request is clean; the second wedges its worker.
        assert fetch(f"{base}/v1/tables/points/map?k=2", 60)["ok"] is True
        with pytest.raises((urllib.error.URLError, socket.timeout, OSError)):
            fetch(f"{base}/v1/tables/points/map?k=2", 3)

        # The probes must detect the wedged-but-alive process and put a
        # fresh worker in its slot; traffic then flows again.
        deadline = time.monotonic() + 60.0
        recovered = False
        while time.monotonic() < deadline:
            try:
                if fetch(f"{base}/v1/tables/points/map?k=3", 15)["ok"]:
                    recovered = True
                    break
            except OSError:
                time.sleep(0.5)
        assert recovered, "fleet never recovered from the hung worker"

        assert _metric(base, "blaeu_resilience_unhealthy_restarts_total") >= 1


#: The chaos cocktail.  Deterministic: every firing decision is a hash
#: of (seed, site, spec, hit index).  L2 artifact reads fail ~10% of the
#: time and stall another ~5% (the disk circuit breaker's diet), writes
#: tear ~5% of the time (the checksum quarantine path), and each worker
#: process ``os._exit``s mid-request once, after its 15th request (the
#: proxy's retry / failover + respawn path).
COCKTAIL = {
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
        {"site": "worker.request", "mode": "kill", "after": 15, "count": 1},
    ],
}

#: Per-request budget (seconds) carried as ``X-Blaeu-Deadline``.
DEADLINE_SECONDS = 60.0

#: Map-payload keys that legitimately differ across runs: counts are
#: refined (approximate -> exact) in the background and may be served
#: degraded under load, so only the map *structure* is compared.
COUNT_KEYS = frozenset({"n_rows", "n_rows_error", "counts_status"})


def _structure(payload: object) -> object:
    """A map payload with every count-freshness key stripped, recursively."""
    if isinstance(payload, dict):
        return {k: _structure(v) for k, v in payload.items() if k not in COUNT_KEYS}
    if isinstance(payload, list):
        return [_structure(item) for item in payload]
    return payload


def _replay(base: str, fetch, tables: list[str]):
    """Replay the trace — every ``(table, k)`` map, 8 rounds, 4 concurrent
    clients, each request carrying its deadline → the first round's map
    structures, the failures, and every exchange's seconds."""
    jobs = [(r, table, k) for r in range(8) for table in tables for k in (2, 3)]

    def exchange(job):
        _, table, k = job
        request = urllib.request.Request(
            f"{base}/v1/tables/{table}/map?k={k}",
            headers={"X-Blaeu-Deadline": str(DEADLINE_SECONDS)},
        )
        started = time.monotonic()
        try:
            answer = fetch(request, 300)
        except urllib.error.HTTPError as error:
            answer = {"ok": False, "error": error.read().decode("utf-8", "replace")}
        except OSError as error:
            answer = {"ok": False, "error": repr(error)}
        return job, answer, time.monotonic() - started

    with ThreadPoolExecutor(4) as clients:
        results = list(clients.map(exchange, jobs))
    # First-round (cold) responses are the identity witnesses — both
    # fleets build them from scratch.
    structures = {
        (table, k): _structure(answer["map"])
        for (round_index, table, k), answer, _ in results
        if round_index == 0 and answer["ok"]
    }
    failures = [(job, answer) for job, answer, _ in results if not answer["ok"]]
    return structures, failures, [seconds for *_, seconds in results]


def test_fault_cocktail_changes_no_map_and_fails_no_request(
    tmp_path, serving, fetch
):
    # Clusterable CSVs with distinct content (→ distinct fingerprints,
    # so the ring spreads them over both workers).
    csvs = []
    for index in range(3):
        rng = np.random.default_rng(700 + index)
        labels = rng.integers(0, 3, size=1_200)
        columns = [
            labels * 5.0 + rng.normal(0.0, 0.6, labels.size),
            labels * -4.0 + rng.normal(0.0, 0.6, labels.size),
            rng.normal(0.0, 1.0, labels.size),
        ]
        csvs.append(str(tmp_path / f"t{index}.csv"))
        rows = np.column_stack(columns)
        np.savetxt(csvs[-1], rows, delimiter=",", header="x,y,z", comments="")
    tables = ["t0", "t1", "t2"]

    def fleet(name: str, *extra: str):
        cache = ["--cache-size", "64", "--cache-dir", str(tmp_path / name)]
        return serving([*FLEET, *cache, *extra, *csvs])

    with fleet("clean") as (base, _):
        expected, failures, _ = _replay(base, fetch, tables)
    assert not failures and len(expected) == 6

    with fleet("chaos", "--faults", json.dumps(COCKTAIL)) as (base, _):
        structures, failures, seconds = _replay(base, fetch, tables)
        injected = _metric(base, "blaeu_faults_injected_total")
        retries = _metric(base, "blaeu_resilience_proxy_retries_total")

    assert len(failures) / len(seconds) < 0.01, failures[:5]
    assert max(seconds) <= DEADLINE_SECONDS
    # Injected faults must never change results at the same seed.
    assert structures == expected
    assert injected > 0, "no fault was injected — the harness is not wired in"
    assert retries > 0, "a killed worker's request was never retried"
