"""Smoke test: ``python -m repro serve`` boots and answers requests."""

from __future__ import annotations

import contextlib
import json
import os
import re
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[2] / "src")
ENV = {
    **{k: v for k, v in os.environ.items() if not k.startswith("BLAEU_")},
    "PYTHONPATH": SRC,
}

CSV = """name,x,y,group
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


@pytest.fixture
def csv_path(tmp_path):
    path = tmp_path / "points.csv"
    path.write_text(CSV)
    return path


@contextlib.contextmanager
def serving(argv, env=ENV, boot_timeout=30):
    """``python -m repro serve --port 0 <argv>``, healthy → its base URL."""
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
                if fetch(f"{base}/healthz")["ok"]:
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


def fetch(url, timeout=10):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return json.loads(response.read())


def test_serve_boots_and_round_trips_one_request(csv_path):
    argv = ["--cache-size", "16", "--threads", "2", str(csv_path)]
    # The banner line carries the resolved port (we asked for 0).
    with serving(argv, boot_timeout=10) as (base, _):
        payload = fetch(f"{base}/healthz")
        assert payload["ok"] is True
        assert payload["tables"] == 1

        tables = fetch(f"{base}/v1/tables")
        assert tables["ok"] is True
        assert [r["name"] for r in tables["catalog"]] == ["points"]


def test_serve_multi_worker_boots_routes_and_restarts(csv_path, tmp_path):
    """``--workers 2`` boots the supervisor: routed requests answer,
    metrics merge across workers, and a restarted worker comes back."""
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

        assert fetch(f"{base}/v1/tables/points/map", timeout=60)["ok"] is True

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


def test_serve_requires_data_or_demo():
    result = subprocess.run(
        [sys.executable, "-m", "repro", "serve"],
        env=ENV,
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
def test_serve_resolves_flag_then_environment_then_default(csv_path, argv, threads):
    env = {**ENV, "BLAEU_TRACE": "1", "BLAEU_THREADS": "3"}
    with serving([*argv, str(csv_path)], env) as (base, banner):
        assert f"threads={threads}" in banner
        assert fetch(f"{base}/healthz")["pool"]["workers"] == threads
        assert fetch(f"{base}/v1/traces")["enabled"] is True


def test_blaeu_workers_boots_the_supervisor_like_the_flag(csv_path):
    env = {**ENV, "BLAEU_WORKERS": "2"}
    with serving(["--threads", "2", str(csv_path)], env) as (base, banner):
        assert "blaeu supervisor listening" in banner
        workers = fetch(f"{base}/v1/workers")["workers"]
        assert [worker["alive"] for worker in workers] == [True, True]
        # The variable stopped at the supervisor: a worker's port is a
        # plain service (a thread pool), not a supervisor of its own.
        health = fetch(f"http://127.0.0.1:{workers[0]['port']}/healthz")
        assert health["pool"]["workers"] == 2


def test_serve_malformed_environment_is_a_one_line_error(csv_path):
    result = subprocess.run(
        [sys.executable, "-m", "repro", "serve", str(csv_path)],
        env={**ENV, "BLAEU_CACHE_SIZE": "many"},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert result.stderr.splitlines()[-1] == (
        "blaeu serve: error: BLAEU_CACHE_SIZE must be an integer, got 'many'"
    )
