"""Unit tests for the bounded worker pool.

The pool keeps only the load it admits on; what happened to each job is
counted in the process-global registry, read here as a scraper does.
"""

import asyncio
import sys
import threading
import time

import pytest

from repro.obs.metrics import reset_metrics
from repro.service.pool import PoolSaturatedError, WorkerPool
from scrape import scraped


def run(coroutine):
    return asyncio.run(coroutine)


#: Every pool outcome counter, by the name of the event it counts.
OUTCOMES = {
    "completed": "blaeu_pool_completed_total",
    "failed": "blaeu_pool_failed_total",
    "rejected": "blaeu_pool_rejected_total",
    "deadline_shed": "blaeu_resilience_pool_deadline_shed_total",
}


def counts(metrics) -> dict[str, float]:
    """Every pool outcome count, as ``/metrics`` renders it."""
    return {outcome: scraped(metrics, name) for outcome, name in OUTCOMES.items()}


class TestRun:
    def test_runs_function_off_the_event_loop(self):
        metrics = reset_metrics()
        pool = WorkerPool(workers=2, max_pending=4)

        async def main():
            loop_thread = threading.get_ident()
            worker_thread = await pool.run(threading.get_ident)
            return loop_thread, worker_thread

        loop_thread, worker_thread = run(main())
        assert worker_thread != loop_thread
        pool.shutdown()
        assert counts(metrics)["completed"] == 1

    def test_returns_value_and_propagates_exceptions(self):
        metrics = reset_metrics()
        pool = WorkerPool(workers=1, max_pending=2)

        async def main():
            assert await pool.run(lambda: 41 + 1) == 42
            with pytest.raises(ZeroDivisionError):
                await pool.run(lambda: 1 / 0)

        run(main())
        # Failures are counted separately.
        assert counts(metrics) == {
            "completed": 1, "failed": 1, "rejected": 0, "deadline_shed": 0
        }
        assert pool.stats().in_flight == 0
        pool.shutdown()

    def test_concurrent_jobs_overlap(self):
        pool = WorkerPool(workers=4, max_pending=8)
        barrier = threading.Barrier(3, timeout=5)

        async def main():
            # Three jobs meet at a barrier: only possible if they run
            # concurrently on separate worker threads.
            jobs = [asyncio.ensure_future(pool.run(barrier.wait)) for _ in range(3)]
            await asyncio.wait_for(asyncio.gather(*jobs), timeout=5)

        run(main())
        pool.shutdown()


class TestAdmissionControl:
    def test_saturation_raises_instead_of_queueing(self):
        metrics = reset_metrics()
        pool = WorkerPool(workers=1, max_pending=1)
        release = threading.Event()

        async def main():
            blocker = asyncio.ensure_future(pool.run(release.wait))
            await asyncio.sleep(0.05)  # let the blocker occupy the slot
            with pytest.raises(PoolSaturatedError):
                await pool.run(lambda: None)
            release.set()
            await blocker

        run(main())
        assert counts(metrics)["rejected"] == 1
        assert counts(metrics)["completed"] == 1
        pool.shutdown()

    def test_slot_freed_after_completion(self):
        pool = WorkerPool(workers=1, max_pending=1)

        async def main():
            await pool.run(lambda: None)
            await pool.run(lambda: None)  # would raise if the slot leaked

        run(main())
        assert pool.stats().in_flight == 0
        pool.shutdown()

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="workers"):
            WorkerPool(workers=0)
        with pytest.raises(ValueError, match="max_pending"):
            WorkerPool(workers=4, max_pending=2)


class TestBackgroundAdmission:
    def test_background_runs_on_idle_worker(self):
        metrics = reset_metrics()
        pool = WorkerPool(workers=1, max_pending=2)

        async def main():
            assert await pool.run(lambda: 7, background=True) == 7

        run(main())
        assert counts(metrics)["completed"] == 1
        assert pool.stats().background_in_flight == 0
        pool.shutdown()

    def test_background_rejected_when_no_idle_worker(self):
        # Foreground admission tolerates a queue up to max_pending;
        # background must not — it is admitted onto idle threads only.
        metrics = reset_metrics()
        pool = WorkerPool(workers=1, max_pending=4)
        release = threading.Event()

        async def main():
            blocker = asyncio.ensure_future(pool.run(release.wait))
            await asyncio.sleep(0.05)  # the only worker is now busy
            with pytest.raises(PoolSaturatedError, match="no idle worker"):
                await pool.run(lambda: None, background=True)
            # A foreground job still fits inside max_pending.
            foreground = asyncio.ensure_future(pool.run(lambda: 3))
            release.set()
            assert await foreground == 3
            await blocker

        run(main())
        # A refused speculation is not a shed foreground request.
        assert counts(metrics)["rejected"] == 0
        assert counts(metrics)["completed"] == 2
        pool.shutdown()

    def test_background_leaves_no_slot_behind_on_failure(self):
        metrics = reset_metrics()
        pool = WorkerPool(workers=1, max_pending=2)

        async def main():
            with pytest.raises(ZeroDivisionError):
                await pool.run(lambda: 1 / 0, background=True)
            # The slot must be free again for foreground work.
            assert await pool.run(lambda: 1) == 1

        run(main())
        stats = pool.stats()
        assert stats.in_flight == 0
        assert stats.background_in_flight == 0
        assert counts(metrics)["failed"] == 1
        pool.shutdown()

    def test_background_rejection_does_not_consume_admission(self):
        # A burst of rejected background offers must not eat into the
        # pending budget foreground requests rely on.
        metrics = reset_metrics()
        pool = WorkerPool(workers=1, max_pending=2)
        release = threading.Event()

        async def main():
            blocker = asyncio.ensure_future(pool.run(release.wait))
            await asyncio.sleep(0.05)
            for _ in range(10):
                with pytest.raises(PoolSaturatedError):
                    await pool.run(lambda: None, background=True)
            # Exactly one more foreground job fits (max_pending=2).
            foreground = asyncio.ensure_future(pool.run(lambda: None))
            await asyncio.sleep(0.05)
            release.set()
            await asyncio.gather(blocker, foreground)

        run(main())
        assert counts(metrics)["rejected"] == 0
        assert counts(metrics)["completed"] == 2
        assert pool.stats().in_flight == 0
        pool.shutdown()


class TestCountsUnderContention:
    def test_every_job_is_counted_once(self):
        """More workers than cores, a short switch interval, a few
        hundred jobs: a lost update in the registry or in the pool's
        admission count shows as a wrong total or a leaked slot."""
        metrics = reset_metrics()
        pool = WorkerPool(workers=8, max_pending=400)

        async def main():
            def job(index: int) -> int:
                if index % 7 == 0:
                    raise ValueError(index)
                return index

            return await asyncio.gather(
                *(pool.run(job, index) for index in range(300)),
                return_exceptions=True,
            )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = asyncio.run(asyncio.wait_for(main(), timeout=60))
        finally:
            sys.setswitchinterval(interval)
            pool.shutdown()
        failed = sum(isinstance(result, ValueError) for result in results)
        assert failed == 43
        assert counts(metrics) == {
            "completed": 300 - failed,
            "failed": failed,
            "rejected": 0,
            "deadline_shed": 0,
        }
        assert pool.stats().in_flight == 0


class TestShutdown:
    def test_shutdown_refuses_new_work(self):
        pool = WorkerPool(workers=1, max_pending=2)
        pool.shutdown()

        async def main():
            with pytest.raises(RuntimeError, match="shut down"):
                await pool.run(lambda: None)

        run(main())

    def test_shutdown_waits_for_running_jobs(self):
        pool = WorkerPool(workers=1, max_pending=2)
        finished = []

        async def main():
            task = asyncio.ensure_future(
                pool.run(lambda: (time.sleep(0.1), finished.append(True)))
            )
            await asyncio.sleep(0.02)
            pool.shutdown(wait=True)
            await task

        run(main())
        assert finished == [True]


class TestDeadlineShedding:
    def test_expired_deadline_sheds_before_queueing(self):
        from repro.resilience.deadline import (
            Deadline,
            DeadlineExceeded,
            reset_deadline,
            set_deadline,
        )

        metrics = reset_metrics()
        pool = WorkerPool(workers=1, max_pending=2)
        ran = []

        async def main():
            # expires_at=0.0 is always in the past on the monotonic
            # clock: admission must shed without burning a worker slot.
            token = set_deadline(Deadline(expires_at=0.0, budget=0.25))
            try:
                with pytest.raises(DeadlineExceeded):
                    await pool.run(lambda: ran.append(True))
            finally:
                reset_deadline(token)

        run(main())
        assert ran == []
        assert counts(metrics)["deadline_shed"] == 1
        assert counts(metrics)["completed"] == 0
        pool.shutdown()

    def test_deadline_rides_into_the_worker_thread(self):
        from repro.resilience.deadline import current_deadline, deadline_scope

        pool = WorkerPool(workers=1, max_pending=2)

        async def main():
            with deadline_scope(30.0):
                return await pool.run(current_deadline)

        seen = run(main())
        pool.shutdown()
        assert seen is not None and seen.budget == 30.0

    def test_background_jobs_are_exempt_from_the_request_budget(self):
        from repro.resilience.deadline import (
            Deadline,
            reset_deadline,
            set_deadline,
        )

        metrics = reset_metrics()
        pool = WorkerPool(workers=2, max_pending=4)

        async def main():
            # Speculative work installs its own budget on the worker;
            # the caller's spent deadline must not shed it at admission.
            token = set_deadline(Deadline(expires_at=0.0, budget=0.25))
            try:
                return await pool.run(lambda: "ran", background=True)
            finally:
                reset_deadline(token)

        assert run(main()) == "ran"
        assert counts(metrics)["deadline_shed"] == 0
        pool.shutdown()
