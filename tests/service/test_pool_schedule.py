"""The worker pool's hand-off under seeded schedules.

:class:`~repro.service.pool._LifoExecutor` gives each job to the thread
that went idle last.  Its only check-then-act steps — a submission
popping the idle stack while a finishing thread pushes itself, and a
submission racing :meth:`shutdown` — sit right after the ``pool.submit``
and ``pool.idle`` fault points, so the injector's ``latency`` mode
(deterministic from ``sha256(seed, site, hit)``) stretches exactly those
windows.  Whatever the order: every admitted job runs once, one thread
serves a submitter that waits for each answer, ``threads`` jobs that
wait for each other run on ``threads`` threads, and a shut-down
executor has no thread left and admits nothing.
"""

from __future__ import annotations

import asyncio
import sys
import threading
from collections import Counter

import pytest

from repro.obs.metrics import reset_metrics
from repro.resilience.faults import FaultInjector, FaultSpec, install_faults
from repro.service.pool import WorkerPool, _LifoExecutor
from scrape import scraped

SEEDS = (1, 2, 3, 4, 5)
THREADS = 3


@pytest.fixture(params=SEEDS)
def schedule(request):
    """A seeded perturbation of the hand-off windows, with a short
    switch interval so the threads trade the interpreter often."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    install_faults(
        FaultInjector(
            [
                FaultSpec(site="pool.submit", mode="latency", rate=0.3, seconds=0.001),
                FaultSpec(site="pool.idle", mode="latency", rate=0.3, seconds=0.001),
            ],
            seed=request.param,
        )
    )
    yield request.param
    install_faults(None)
    sys.setswitchinterval(interval)


def _pool_threads(name: str) -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name.startswith(name + "_")]


def test_every_admitted_job_runs_exactly_once(schedule):
    executor = _LifoExecutor(THREADS, "sched-once")
    runs: Counter[int] = Counter()
    lock = threading.Lock()
    futures = {}

    def job(index: int) -> int:
        with lock:
            runs[index] += 1
        return index

    def submitter(first: int) -> None:
        for index in range(first, first + 60):
            futures[index] = executor.submit(job, index)

    submitters = [
        threading.Thread(target=submitter, args=(60 * n,)) for n in range(4)
    ]
    for thread in submitters:
        thread.start()
    for thread in submitters:
        thread.join(30)
        assert not thread.is_alive()
    assert {i: f.result(timeout=30) for i, f in futures.items()} == {
        i: i for i in range(240)
    }
    executor.shutdown(wait=True)
    assert runs == Counter(range(240))
    assert _pool_threads("sched-once") == []


def test_one_thread_serves_a_sequential_submitter(schedule):
    executor = _LifoExecutor(THREADS, "sched-seq")
    # Warm every thread first: the sequential client must still get one.
    gate = threading.Barrier(THREADS, timeout=10)
    warm = [executor.submit(gate.wait) for _ in range(THREADS)]
    for future in warm:
        future.result(timeout=10)
    served = {executor.submit(threading.get_ident).result(10) for _ in range(50)}
    executor.shutdown(wait=True)
    assert len(served) == 1


def test_a_sequential_client_of_the_pool_keeps_one_thread(schedule):
    pool = WorkerPool(workers=2, max_pending=4)

    async def main():
        return [await pool.run(threading.get_ident) for _ in range(30)]

    served = set(asyncio.run(main()))
    pool.shutdown()
    assert len(served) == 1


def test_threads_concurrent_blockers_run_on_threads_threads(schedule):
    executor = _LifoExecutor(THREADS, "sched-block")
    gate = threading.Barrier(THREADS, timeout=10)

    def blocker() -> int:
        gate.wait()  # only returns once THREADS jobs run at once
        return threading.get_ident()

    for _ in range(3):
        futures = [executor.submit(blocker) for _ in range(THREADS)]
        assert len({f.result(timeout=10) for f in futures}) == THREADS
    executor.shutdown(wait=True)
    assert _pool_threads("sched-block") == []


def test_shutdown_racing_submissions_loses_no_job(schedule):
    executor = _LifoExecutor(THREADS, "sched-stop")
    ran: list[int] = []
    admitted: list[int] = []
    refused: list[int] = []
    started = threading.Event()

    def submitter() -> None:
        for index in range(10_000):
            try:
                executor.submit(ran.append, index)
            except RuntimeError:
                refused.append(index)
                return
            admitted.append(index)
            started.set()

    thread = threading.Thread(target=submitter)
    thread.start()
    assert started.wait(10)
    executor.shutdown(wait=True)
    thread.join(30)
    assert not thread.is_alive()
    # Every job admitted before the close ran (the backlog drains before
    # the threads exit); the first refused one and nothing after it did.
    assert sorted(ran) == admitted
    assert refused == [len(admitted)] or len(admitted) == 10_000
    assert _pool_threads("sched-stop") == []
    with pytest.raises(RuntimeError, match="shutdown"):
        executor.submit(ran.append, -1)


def test_the_perturbation_reaches_both_windows():
    """The fault points are where the schedule fixture aims: a run with
    every hit delayed counts injections at both sites."""
    metrics = reset_metrics()
    install_faults(
        FaultInjector(
            [FaultSpec(site="pool.*", mode="latency", seconds=0.0)], seed=0
        )
    )
    try:
        executor = _LifoExecutor(1, "sched-reach")
        executor.submit(int).result(10)
        executor.shutdown(wait=True)
    finally:
        install_faults(None)
    for site in ("pool.submit", "pool.idle"):
        assert scraped(metrics, "blaeu_faults_injected_total", site=site) == 1
