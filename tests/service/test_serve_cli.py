"""Smoke test: ``python -m repro serve`` boots and answers requests."""

from __future__ import annotations

import json
import subprocess
import sys
import urllib.request

import pytest


@pytest.fixture(scope="module")
def single_process(csv_path, serving):
    """One plain ``serve`` process over ``points`` → its base URL."""
    argv = ["--cache-size", "16", "--threads", "2", str(csv_path)]
    # The banner line carries the resolved port (we asked for 0).
    with serving(argv, boot_timeout=10) as (base, _):
        yield base


def _maps(base, fetch):
    """The default and the ``k=2`` map of ``points``, as canonical JSON."""
    urls = [f"{base}/v1/tables/points/map{query}" for query in ("", "?k=2")]
    return [json.dumps(fetch(url, 60)["map"], sort_keys=True) for url in urls]


def test_serve_boots_and_round_trips_one_request(single_process, fetch):
    payload = fetch(f"{single_process}/healthz")
    assert payload["ok"] is True
    assert payload["tables"] == 1

    tables = fetch(f"{single_process}/v1/tables")
    assert tables["ok"] is True
    assert [r["name"] for r in tables["catalog"]] == ["points"]


def test_serve_multi_worker_boots_routes_and_restarts(
    csv_path, tmp_path, serving, fetch, single_process
):
    """``--workers 2`` boots the supervisor: routed requests answer what
    one process answers, metrics merge across workers, and a restarted
    worker comes back."""
    argv = [
        "--workers",
        "2",
        "--threads",
        "2",
        "--cache-size",
        "16",
        "--cache-dir",
        str(tmp_path / "artifacts"),
        "--trace",
        str(csv_path),
    ]
    with serving(argv) as (base, _):
        payload = fetch(f"{base}/healthz")
        assert payload["ok"] is True
        assert [w["healthy"] for w in payload["workers"]] == [True, True]

        catalog = fetch(f"{base}/v1/tables")
        assert [r["name"] for r in catalog["catalog"]] == ["points"]

        # The supervisor hands its resolved config down: --trace and
        # --threads reached the *workers* (each asked on its own port).
        assert fetch(f"{base}/v1/traces")["enabled"] is True
        for worker in fetch(f"{base}/v1/workers")["workers"]:
            health = fetch(f"http://127.0.0.1:{worker['port']}/healthz")
            assert health["pool"]["workers"] == 2

        # Maps are bit-identical across worker counts.
        assert _maps(base, fetch) == _maps(single_process, fetch)

        with urllib.request.urlopen(f"{base}/metrics", timeout=10) as response:
            metrics = response.read().decode()
        assert "blaeu_supervisor_workers 2" in metrics
        assert 'blaeu_worker_up{slot="0"} 1' in metrics
        assert 'blaeu_worker_up{slot="1"} 1' in metrics

        restart = urllib.request.Request(
            f"{base}/v1/workers/0/restart", method="POST"
        )
        restarted = fetch(restart, timeout=60)
        assert restarted["ok"] is True and restarted["restarts"] == 1

        payload = fetch(f"{base}/healthz")
        assert [w["healthy"] for w in payload["workers"]] == [True, True]


def test_serve_requires_data_or_demo(serve_env):
    result = subprocess.run(
        [sys.executable, "-m", "repro", "serve"],
        env=serve_env,
        capture_output=True,
        text=True,
    )
    assert result.returncode != 0
    assert "CSV files or --demo" in result.stderr


@pytest.mark.parametrize(
    ("argv", "threads"),
    [([], 3), (["--threads", "2"], 2)],
    ids=["environment-when-the-flag-is-absent", "flag-over-environment"],
)
def test_serve_resolves_flag_then_environment_then_default(
    csv_path, serving, fetch, serve_env, argv, threads
):
    env = {**serve_env, "BLAEU_TRACE": "1", "BLAEU_THREADS": "3"}
    with serving([*argv, str(csv_path)], env) as (base, banner):
        assert f"threads={threads}" in banner
        assert fetch(f"{base}/healthz")["pool"]["workers"] == threads
        assert fetch(f"{base}/v1/traces")["enabled"] is True


def test_blaeu_workers_boots_the_supervisor_like_the_flag(
    csv_path, serving, fetch, serve_env
):
    env = {**serve_env, "BLAEU_WORKERS": "2"}
    with serving(["--threads", "2", str(csv_path)], env) as (base, banner):
        assert "blaeu supervisor listening" in banner
        workers = fetch(f"{base}/v1/workers")["workers"]
        assert [worker["alive"] for worker in workers] == [True, True]
        # The variable stopped at the supervisor: a worker's port is a
        # plain service (a thread pool), not a supervisor of its own.
        health = fetch(f"http://127.0.0.1:{workers[0]['port']}/healthz")
        assert health["pool"]["workers"] == 2


def test_serve_malformed_environment_is_a_one_line_error(csv_path, serve_env):
    result = subprocess.run(
        [sys.executable, "-m", "repro", "serve", str(csv_path)],
        env={**serve_env, "BLAEU_CACHE_SIZE": "many"},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert result.stderr.splitlines()[-1] == (
        "blaeu serve: error: BLAEU_CACHE_SIZE must be an integer, got 'many'"
    )
