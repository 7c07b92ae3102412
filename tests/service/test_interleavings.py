"""Interleavings as an oracle axis: a seeded schedule perturber.

Every other serving test runs one benign schedule.  Here the fault
injector's ``latency`` mode (deterministic from ``sha256(seed, site,
hit)``) stretches the pipeline stages and request entry at seeded hits,
so two concurrent clients and the speculative prefetcher race through
other orders on every seed.  Whatever the order, a navigation state has
one map, and a stopped service leaves no job, speculation or refinement
behind.
"""

from __future__ import annotations

import hashlib
import json
import sys
import threading

import pytest

from repro.core.config import BlaeuConfig
from repro.core.engine import Blaeu
from repro.resilience.faults import FaultInjector, FaultSpec, install_faults
from repro.service.config import GuideConfig, PoolConfig, ServiceConfig
from scrape import scraped
from synthetic import mixed_blobs

#: One client's walk: (command, arguments beyond the session).
WALK = (
    ("open", {"table": "mixed_blobs", "theme": 0}),
    ("zoom", {"region": "r0"}),
    ("project", {"theme": 1}),
    ("rollback", {}),
    ("rollback", {}),
    ("zoom", {"region": "r1"}),
    ("project", {"theme": 2}),
)

SEEDS = (1, 2, 3, 4)


def _perturber(seed: int) -> FaultInjector:
    return FaultInjector(
        [
            FaultSpec(site="stage.*", mode="latency", rate=0.5, seconds=0.004),
            FaultSpec(site="worker.request", mode="latency", rate=0.5, seconds=0.002),
        ],
        seed=seed,
    )


def _digest(value: object) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _run(service_runner, injector: FaultInjector | None):
    """Two clients walk :data:`WALK` at once; returns the map digest of
    every (client, step), the stopped service and its last exposition."""
    engine = Blaeu(BlaeuConfig(map_k_values=(2, 3), seed=5))
    engine.register(mixed_blobs(n_rows=300, k=2, seed=61).table)
    config = ServiceConfig(
        port=0,
        pool=PoolConfig(threads=2, max_pending=32),
        guide=GuideConfig(prefetch=True),
    )
    running = service_runner(engine, config).start()
    digests: dict[tuple[str, int], str] = {}
    errors: list[BaseException] = []

    def client(session: str) -> None:
        try:
            for step, (command, args) in enumerate(WALK):
                status, payload = running.post(
                    f"/v1/commands/{command}", {"session": session, **args}
                )
                assert status == 200, payload
                digests[session, step] = _digest(payload["map"])
        except BaseException as error:  # surfaced by the caller
            errors.append(error)

    # A short switch interval makes the threads trade the interpreter
    # often, so more orders are tried than the fault latencies alone make.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    install_faults(injector)
    try:
        clients = [
            threading.Thread(target=client, args=(session,))
            for session in ("a", "b")
        ]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join(60)
            assert not thread.is_alive()
        _, body = running.get("/metrics")
    finally:
        install_faults(None)
        sys.setswitchinterval(interval)
        running.stop()
    assert not errors, errors
    return digests, running.service, body.decode()


@pytest.fixture(scope="module")
def unperturbed(service_runner):
    return _run(service_runner, None)


@pytest.mark.parametrize("seed", SEEDS)
def test_every_schedule_serves_one_map_per_state(service_runner, unperturbed, seed):
    reference, _, _ = unperturbed
    # Both clients walked the same path, so a state's map is the same
    # for either of them in the benign schedule too.
    for step in range(len(WALK)):
        assert reference["a", step] == reference["b", step]
    digests, service, text = _run(service_runner, _perturber(seed))
    assert digests == reference
    assert scraped(text, "blaeu_faults_injected_total") > 0
    assert scraped(text, "blaeu_guide_prefetch_scheduled_total") > 0
    assert scraped(text, "blaeu_pipeline_refine_errors_total") == 0
    pool = service.pool.stats()
    assert pool.in_flight == pool.background_in_flight == 0
    assert service._prefetcher.in_flight == 0
