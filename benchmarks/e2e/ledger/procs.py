"""Child processes and scratch space, with nothing left behind.

Every server runs ``python -m repro serve --port 0`` in its own process
group (a supervisor's workers inherit it), is registered on start and is
killed group-wide on exit — normal, exceptional or by signal.  All files
live under one work directory inside the checkout, removed on exit.
"""

from __future__ import annotations

import atexit
import http.client
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

E2E_DIR = Path(__file__).resolve().parents[1]
REPO_ROOT = E2E_DIR.parents[1]
SRC_DIR = REPO_ROOT / "src"
OUT_DIR = E2E_DIR / "out"

#: Health is polled this often while a server boots.
HEALTH_POLL_S = 0.005
BOOT_TIMEOUT_S = 60.0

_live: list[subprocess.Popen] = []
_work_dirs: list[Path] = []


def child_env(work: Path) -> dict[str, str]:
    """The environment of every child: our ``src``, one BLAS thread, and
    a temp dir inside the work directory (the supervisor's port files and
    default cache dirs go wherever ``tempfile`` points)."""
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("BLAEU_")
    }
    env.update(
        PYTHONPATH=str(SRC_DIR),
        TMPDIR=str(tmp),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def make_work_dir() -> Path:
    """A fresh scratch directory under ``benchmarks/e2e/work``."""
    work = E2E_DIR / "work" / f"run-{os.getpid()}-{time.time_ns():x}"
    work.mkdir(parents=True)
    _work_dirs.append(work)
    return work


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def _kill_group(process: subprocess.Popen, grace: float = 5.0) -> None:
    """SIGTERM the process group, SIGKILL what survives ``grace`` seconds."""
    pgid = process.pid
    for signum in (signal.SIGTERM, signal.SIGKILL):
        try:
            os.killpg(pgid, signum)
        except ProcessLookupError:
            break
        deadline = time.monotonic() + grace
        try:
            process.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            continue
        while _group_alive(pgid) and time.monotonic() < deadline:
            time.sleep(0.005)
        if not _group_alive(pgid):
            break
    process.wait()


def cleanup() -> None:
    """Stop every child and remove every work directory (idempotent)."""
    while _live:
        _kill_group(_live.pop())
    while _work_dirs:
        shutil.rmtree(_work_dirs.pop(), ignore_errors=True)
    work_root = E2E_DIR / "work"
    try:
        work_root.rmdir()
    except OSError:
        pass  # another run's directory is still there, or none ever was


def _on_signal(signum: int, _frame: object) -> None:
    cleanup()
    raise SystemExit(128 + signum)


def install_cleanup() -> None:
    """Run :func:`cleanup` at exit and on SIGTERM/SIGINT/SIGHUP."""
    atexit.register(cleanup)
    for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(signum, _on_signal)


def run_cli(work: Path, *argv: str, timeout: float = 120.0) -> float:
    """Run ``python -m repro <argv>`` to completion; returns its wall time."""
    started = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", *argv],
        env=child_env(work),
        cwd=work,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )
    _live.append(process)
    try:
        _, stderr = process.communicate(timeout=timeout)
    finally:
        _kill_group(process)
        _live.remove(process)
    if process.returncode != 0:
        raise RuntimeError(
            f"repro {' '.join(argv)} exited {process.returncode}: "
            f"{stderr.decode(errors='replace')[-500:]}"
        )
    return time.perf_counter() - started


def precompile(work: Path) -> None:
    """Import the service once so no timed boot pays for ``.pyc`` files."""
    subprocess.run(
        [
            sys.executable,
            "-c",
            "import repro.cli, repro.service.app, repro.service.supervisor",
        ],
        env=child_env(work),
        cwd=work,
        check=True,
        timeout=120,
    )


class Server:
    """One ``repro serve`` process group, healthy when the constructor returns.

    ``healthy_at`` is the ``perf_counter`` reading of the first OK
    ``/healthz`` — where ``first_map_s`` starts counting.
    """

    def __init__(
        self,
        work: Path,
        argv: list[str],
        traced: bool = False,
        fleet: bool = False,
    ) -> None:
        self._fleet = fleet
        command = [sys.executable, "-u", "-m", "repro", "serve", "--port", "0"]
        command += ["--threads", "2"]
        if traced:
            command.append("--trace")
        self._process = subprocess.Popen(
            command + argv,
            env=child_env(work),
            cwd=work,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            start_new_session=True,
        )
        _live.append(self._process)
        try:
            assert self._process.stdout is not None
            banner = self._process.stdout.readline()
            match = re.search(r"http://127\.0\.0\.1:(\d+)", banner)
            if not match:
                raise RuntimeError(f"unexpected serve banner: {banner!r}")
            self.port = int(match.group(1))
            self.healthy_at = self.await_healthy()
        except BaseException:
            self.close()
            raise

    @property
    def pid(self) -> int:
        return self._process.pid

    def await_healthy(self, timeout: float = BOOT_TIMEOUT_S) -> float:
        """Poll ``/healthz`` until it reports ``ok``; returns that instant."""
        give_up = time.monotonic() + timeout
        while time.monotonic() < give_up:
            if self._process.poll() is not None:
                raise RuntimeError(
                    f"server exited {self._process.returncode} while booting"
                )
            connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
            try:
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                body = response.read()
                if response.status == 200 and json.loads(body).get("ok"):
                    return time.perf_counter()
            except (OSError, ValueError, http.client.HTTPException):
                pass
            finally:
                connection.close()
            time.sleep(HEALTH_POLL_S)
        raise RuntimeError("server never became healthy")

    def pids(self) -> list[int]:
        """The serving processes: this one, plus a supervisor's workers."""
        return [self.pid] + [w["pid"] for w in self.workers() if w.get("pid")]

    def workers(self) -> list[dict]:
        """``GET /v1/workers`` of a supervisor (empty for a single process)."""
        if not self._fleet:
            return []
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            connection.request("GET", "/v1/workers")
            response = connection.getresponse()
            body = response.read()
            if response.status != 200:
                return []
            return list(json.loads(body).get("workers", []))
        finally:
            connection.close()

    def rss_peak_mb(self) -> float:
        """Sum of ``VmHWM`` over the serving processes, in MB."""
        total_kb = 0
        for pid in self.pids():
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            match = re.search(r"VmHWM:\s+(\d+) kB", status)
            if match:
                total_kb += int(match.group(1))
        return total_kb / 1024.0

    def close(self) -> None:
        if self._process in _live:
            _kill_group(self._process)
            _live.remove(self._process)
        if self._process.stdout is not None:
            self._process.stdout.close()
