"""Deterministic, seed-keyed fault injection for chaos tests.

Production code is sprinkled with named *fault points*::

    fault_point("store.artifact.read")
    blob = corrupt_bytes("store.artifact.write", blob)

which are single ``None``-checks unless an injector is installed.  An
injector is a list of :class:`FaultSpec` rules — site glob, mode, rate,
and firing window — activated either programmatically
(:func:`install_faults`) or via the ``BLAEU_FAULTS`` env var, which is
how subprocess workers under the supervisor pick faults up::

    BLAEU_FAULTS='{"seed": 7, "faults": [
        {"site": "store.artifact.read", "mode": "error", "rate": 0.2},
        {"site": "worker.request", "mode": "kill", "after": 5, "count": 1}
    ]}'

Determinism: each spec keeps a per-site hit counter, and whether hit
*n* fires is decided by ``sha256(seed, site, n)`` — the same seed
produces the same firing pattern run over run, independent of wall
clock.  (Under concurrency the *assignment* of hit indices to threads
can vary, but the multiset of fired hits per N calls cannot.)

Modes:

``error``    raise :class:`InjectedFault` (an ``OSError``)
``latency``  sleep ``seconds`` then proceed
``torn``     truncate the blob at a fault point using :func:`corrupt_bytes`
``kill``     ``os._exit(137)`` — a worker crash, mid-request
``hang``     sleep ``seconds`` (default 3600) — a wedged worker
"""

from __future__ import annotations

import fnmatch
import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass

from repro.obs.metrics import get_metrics

__all__ = [
    "FaultInjector",
    "FaultSpec",
    "InjectedFault",
    "corrupt_bytes",
    "fault_point",
    "faults_from_env",
    "install_faults",
]

FAULTS_ENV = "BLAEU_FAULTS"

MODES = ("error", "latency", "torn", "kill", "hang")


class InjectedFault(OSError):
    """The error raised by ``error``-mode fault points.

    Subclasses ``OSError`` so production ``except OSError`` handlers —
    the ones chaos testing exists to exercise — treat it as a real IO
    failure.
    """


@dataclass(frozen=True)
class FaultSpec:
    site: str  # glob over fault-point names, e.g. "store.artifact.*"
    mode: str
    rate: float = 1.0  # probability a matching hit fires
    after: int = 0  # skip the first `after` matching hits
    count: int | None = None  # fire at most `count` times (None: unlimited)
    seconds: float = 0.0  # latency/hang duration

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown fault mode {self.mode!r} (want one of {MODES})")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")


class FaultInjector:
    """Matches fault-point hits against specs, deterministically."""

    def __init__(self, specs: list[FaultSpec], *, seed: int = 0):
        self._specs = list(specs)
        self._seed = seed
        self._lock = threading.Lock()
        self._hits: dict[int, int] = {i: 0 for i in range(len(self._specs))}
        self._fired: dict[int, int] = {i: 0 for i in range(len(self._specs))}

    def _decides_to_fire(self, spec_index: int, spec: FaultSpec, hit: int) -> bool:
        if spec.rate >= 1.0:
            return True
        digest = hashlib.sha256(
            f"{self._seed}:{spec.site}:{spec_index}:{hit}".encode()
        ).digest()
        draw = int.from_bytes(digest[:8], "big") / float(1 << 64)
        return draw < spec.rate

    def fire(
        self, site: str, *, modes: tuple[str, ...] = MODES
    ) -> FaultSpec | None:
        """The spec that fires for this hit of ``site``, if any.

        ``modes`` filters which specs are considered, so a ``torn`` rule
        and an ``error`` rule on the same site keep independent budgets.
        """
        for index, spec in enumerate(self._specs):
            if spec.mode not in modes or not fnmatch.fnmatchcase(site, spec.site):
                continue
            with self._lock:
                hit = self._hits[index]
                self._hits[index] = hit + 1
                if hit < spec.after:
                    continue
                if spec.count is not None and self._fired[index] >= spec.count:
                    continue
                if not self._decides_to_fire(index, spec, hit):
                    continue
                self._fired[index] += 1
            get_metrics().increment_labeled(
                "blaeu_faults_injected_total", {"site": site, "mode": spec.mode}
            )
            return spec
        return None


_INJECTOR: FaultInjector | None = None
_ENV_CHECKED = False
_INSTALL_LOCK = threading.Lock()


def parse_faults(payload: str) -> FaultInjector:
    """Build an injector from the ``BLAEU_FAULTS`` JSON document."""
    try:
        doc = json.loads(payload)
    except json.JSONDecodeError as error:
        raise ValueError(f"{FAULTS_ENV} is not valid JSON: {error}") from error
    if not isinstance(doc, dict) or not isinstance(doc.get("faults"), list):
        raise ValueError(f'{FAULTS_ENV} must look like {{"seed": N, "faults": [...]}}')
    specs = [FaultSpec(**entry) for entry in doc["faults"]]
    return FaultInjector(specs, seed=int(doc.get("seed", 0)))


def faults_from_env() -> FaultInjector | None:
    payload = os.environ.get(FAULTS_ENV, "").strip()
    if not payload:
        return None
    return parse_faults(payload)


def install_faults(injector: FaultInjector | None) -> FaultInjector | None:
    """Install ``injector`` in this process (``None`` uninstalls it).

    The in-process twin of ``BLAEU_FAULTS``, which a process reads once:
    a chaos test arms (and disarms) the serving process's own fault
    points here, overriding the environment from then on.
    """
    global _INJECTOR, _ENV_CHECKED
    with _INSTALL_LOCK:
        _INJECTOR = injector
        _ENV_CHECKED = True
    return injector


def active_injector() -> FaultInjector | None:
    """The installed injector, lazily loading ``BLAEU_FAULTS`` once."""
    global _INJECTOR, _ENV_CHECKED
    if not _ENV_CHECKED:
        with _INSTALL_LOCK:
            if not _ENV_CHECKED:
                _INJECTOR = faults_from_env()
                _ENV_CHECKED = True
    return _INJECTOR


def fault_point(site: str) -> None:
    """Maybe inject a fault at ``site``; no-op when nothing is installed."""
    injector = active_injector()
    if injector is None:
        return
    spec = injector.fire(site, modes=("error", "latency", "kill", "hang"))
    if spec is None:
        return
    if spec.mode == "latency":
        time.sleep(spec.seconds)
    elif spec.mode == "error":
        raise InjectedFault(f"injected fault at {site}")
    elif spec.mode == "kill":
        os._exit(137)
    elif spec.mode == "hang":
        time.sleep(spec.seconds or 3600.0)


def corrupt_bytes(site: str, blob: bytes) -> bytes:
    """Truncate ``blob`` when a ``torn``-mode spec fires at ``site``."""
    injector = active_injector()
    if injector is None:
        return blob
    spec = injector.fire(site, modes=("torn",))
    if spec is None:
        return blob
    return blob[: len(blob) // 2]
