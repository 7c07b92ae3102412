"""Unit tests for the speculative-prefetch scheduler."""

import asyncio
import threading
import time

import pytest

from repro.core.config import BlaeuConfig
from repro.core.engine import Blaeu
from repro.guide.prefetch import (
    PrefetchAction,
    PrefetchScheduler,
    prefetch_actions,
)
from repro.obs.metrics import reset_metrics
from repro.service.pool import WorkerPool
from scrape import scraped
from synthetic import mixed_blobs

#: The speculation events the scheduler counts in the registry.
EVENTS = ("scheduled", "completed", "cancelled", "rejected", "errors", "deadline")


def run(coroutine):
    return asyncio.run(coroutine)


@pytest.fixture
def engine():
    from repro.service.cache import LRUCache

    # A shared result cache, as the service installs: without one,
    # speculative builds have nowhere to land.
    engine = Blaeu(
        BlaeuConfig(map_k_values=(2, 3), seed=5), map_cache=LRUCache(64)
    )
    engine.register(mixed_blobs(n_rows=300, k=2, seed=61).table)
    return engine


def counts(metrics, scheduler) -> dict[str, float]:
    """Each ``blaeu_guide_prefetch_<event>_total``, and the speculations
    the scheduler holds in flight."""
    out = {
        event: scraped(metrics, f"blaeu_guide_prefetch_{event}_total")
        for event in EVENTS
    }
    out["in_flight"] = scheduler.in_flight
    return out


def actions_of(*thunks):
    """A planner returning fixed actions."""
    planned = [
        PrefetchAction(label=f"a{i}", build=thunk)
        for i, thunk in enumerate(thunks)
    ]
    return lambda: planned


class TestResolveActions:
    def test_thunks_warm_the_foreground_cache(self, engine):
        explorer = engine.explore("mixed_blobs")
        explorer.open_theme(0)
        actions = prefetch_actions(explorer, explorer.suggest(limit=3))
        assert actions

        metrics = reset_metrics()
        for action in actions:
            action.build()
        # Re-taking the suggested zoom in the foreground must now hit.
        zoom_target = next(
            s.target for s in explorer.suggest(limit=3) if s.action == "zoom"
        )
        explorer.zoom(zoom_target)
        assert metrics.counter("blaeu_pipeline_map_hits_total") > 0

    def test_initial_state_resolves_open_theme_builds(self, engine):
        explorer = engine.explore("mixed_blobs")
        actions = prefetch_actions(explorer, explorer.suggest(limit=2))
        assert len(actions) == 2
        assert all(a.label.startswith("open_theme:") for a in actions)
        for action in actions:
            action.build()  # builds without an active state


class TestScheduler:
    def test_speculate_runs_planned_actions(self):
        metrics = reset_metrics()
        pool = WorkerPool(workers=2, max_pending=4)
        done = []

        async def main():
            scheduler = PrefetchScheduler(pool, top_n=3, jobs=2)
            scheduler.speculate(
                "t", actions_of(lambda: done.append(1), lambda: done.append(2))
            )
            await scheduler.drain()
            return counts(metrics, scheduler)

        stats = run(main())
        pool.shutdown()
        assert sorted(done) == [1, 2]
        assert stats["completed"] == 2
        assert stats["in_flight"] == 0
        assert pool.stats().in_flight == 0

    def test_top_n_bounds_actions_per_speculation(self):
        pool = WorkerPool(workers=2, max_pending=4)
        done = []

        async def main():
            scheduler = PrefetchScheduler(pool, top_n=1, jobs=1)
            scheduler.speculate(
                "t", actions_of(lambda: done.append(1), lambda: done.append(2))
            )
            await scheduler.drain()

        run(main())
        pool.shutdown()
        assert done == [1]

    def test_new_speculation_cancels_the_old_scope(self):
        metrics = reset_metrics()
        pool = WorkerPool(workers=2, max_pending=4)
        release = threading.Event()
        done = []

        async def main():
            scheduler = PrefetchScheduler(pool, top_n=3, jobs=1)
            scheduler.speculate(
                "t",
                actions_of(lambda: release.wait(5), lambda: done.append("old")),
            )
            await asyncio.sleep(0.05)  # first build is now on a worker
            scheduler.speculate("t", actions_of(lambda: done.append("new")))
            release.set()
            await scheduler.drain()
            return counts(metrics, scheduler)

        stats = run(main())
        pool.shutdown()
        # The old scope's second action never ran; the new one did.
        assert done == ["new"]
        assert stats["cancelled"] >= 1
        assert pool.stats().in_flight == 0

    def test_explicit_cancel_stops_pending_actions(self):
        metrics = reset_metrics()
        pool = WorkerPool(workers=2, max_pending=4)
        release = threading.Event()
        done = []

        async def main():
            scheduler = PrefetchScheduler(pool, top_n=3, jobs=1)
            scheduler.speculate(
                "t",
                actions_of(lambda: release.wait(5), lambda: done.append(1)),
            )
            await asyncio.sleep(0.05)
            scheduler.cancel("t")
            release.set()
            await scheduler.drain()
            return counts(metrics, scheduler)

        stats = run(main())
        pool.shutdown()
        assert done == []
        assert stats["cancelled"] >= 1

    def test_scopes_are_independent(self):
        pool = WorkerPool(workers=2, max_pending=4)
        done = []

        async def main():
            scheduler = PrefetchScheduler(pool, top_n=3, jobs=2)
            scheduler.speculate("a", actions_of(lambda: done.append("a")))
            scheduler.cancel("b")  # unrelated scope
            await scheduler.drain()

        run(main())
        pool.shutdown()
        assert done == ["a"]

    def test_backs_off_while_foreground_occupies_the_pool(self):
        metrics = reset_metrics()
        pool = WorkerPool(workers=1, max_pending=4)
        release = threading.Event()
        done = []

        async def main():
            scheduler = PrefetchScheduler(pool, top_n=1, jobs=1)
            foreground = asyncio.ensure_future(pool.run(release.wait))
            await asyncio.sleep(0.05)  # foreground owns the only worker
            scheduler.speculate("t", actions_of(lambda: done.append(1)))
            await asyncio.sleep(0.05)
            assert done == []  # background never queued behind foreground
            release.set()
            await foreground
            await scheduler.drain()
            return counts(metrics, scheduler)

        stats = run(main())
        pool.shutdown()
        assert done == [1]
        assert stats["completed"] == 1

    def test_planner_errors_are_counted_not_raised(self):
        metrics = reset_metrics()
        pool = WorkerPool(workers=2, max_pending=4)

        def bad_planner():
            raise RuntimeError("boom")

        async def main():
            scheduler = PrefetchScheduler(pool, top_n=3, jobs=1)
            scheduler.speculate("t", bad_planner)
            await scheduler.drain()
            return counts(metrics, scheduler)

        stats = run(main())
        pool.shutdown()
        assert stats["errors"] == 1
        assert stats["completed"] == 0

    def test_build_errors_are_counted_not_raised(self):
        metrics = reset_metrics()
        pool = WorkerPool(workers=2, max_pending=4)

        def bad_build():
            raise ValueError("bad build")

        async def main():
            scheduler = PrefetchScheduler(pool, top_n=3, jobs=1)
            scheduler.speculate("t", actions_of(bad_build))
            await scheduler.drain()
            return counts(metrics, scheduler)

        stats = run(main())
        pool.shutdown()
        assert stats["errors"] == 1

    def test_closed_scheduler_refuses_new_speculation(self):
        metrics = reset_metrics()
        pool = WorkerPool(workers=2, max_pending=4)
        done = []

        async def main():
            scheduler = PrefetchScheduler(pool, top_n=3, jobs=1)
            await scheduler.aclose()
            scheduler.speculate("t", actions_of(lambda: done.append(1)))
            await scheduler.drain()
            return counts(metrics, scheduler)

        stats = run(main())
        pool.shutdown()
        assert done == []
        assert stats["scheduled"] == 0

    def test_rejects_bad_parameters(self):
        pool = WorkerPool(workers=1, max_pending=2)
        with pytest.raises(ValueError, match="top_n"):
            PrefetchScheduler(pool, top_n=0)
        with pytest.raises(ValueError, match="jobs"):
            PrefetchScheduler(pool, jobs=0)
        pool.shutdown()


class TestSchedulerWarmsSharedCache:
    def test_speculation_makes_foreground_zoom_a_cache_hit(self, engine):
        metrics = reset_metrics()
        pool = WorkerPool(workers=2, max_pending=4)
        explorer = engine.explore("mixed_blobs")
        explorer.open_theme(0)
        suggestions = [
            s for s in explorer.suggest(limit=5) if s.action == "zoom"
        ][:1]
        assert suggestions

        async def main():
            scheduler = PrefetchScheduler(pool, top_n=1, jobs=1)
            scheduler.speculate(
                "s", lambda: prefetch_actions(explorer, suggestions)
            )
            await scheduler.drain()
            return counts(metrics, scheduler)

        stats = run(main())
        pool.shutdown()
        assert stats["completed"] == 1

        metrics = reset_metrics()
        explorer.zoom(suggestions[0].target)
        assert metrics.counter("blaeu_pipeline_map_hits_total") == 1


class TestSchedulerDeadline:
    def test_overrunning_builds_are_counted_not_raised(self):
        metrics = reset_metrics()
        from repro.resilience.deadline import checkpoint

        pool = WorkerPool(workers=2, max_pending=4)
        done = []

        def overruns():
            # The scheduler's per-job budget (1µs here) is spent by the
            # time the build's first checkpoint runs.
            time.sleep(0.01)
            checkpoint("prefetch.test")
            done.append(True)

        async def main():
            scheduler = PrefetchScheduler(
                pool, top_n=1, jobs=1, deadline=0.000001
            )
            scheduler.speculate("t", actions_of(overruns))
            await scheduler.drain()
            return counts(metrics, scheduler)

        stats = run(main())
        pool.shutdown()
        assert done == []
        assert stats["deadline"] == 1
        assert stats["completed"] == 0
        assert pool.stats().in_flight == 0  # the slot was released

    def test_roomy_budget_lets_builds_finish(self):
        metrics = reset_metrics()
        from repro.resilience.deadline import checkpoint

        pool = WorkerPool(workers=2, max_pending=4)
        done = []

        async def main():
            scheduler = PrefetchScheduler(
                pool, top_n=1, jobs=1, deadline=30.0
            )
            scheduler.speculate(
                "t",
                actions_of(
                    lambda: (checkpoint("prefetch.test"), done.append(True))
                ),
            )
            await scheduler.drain()
            return counts(metrics, scheduler)

        stats = run(main())
        pool.shutdown()
        assert done == [True]
        assert stats["deadline"] == 0

    def test_rejects_nonpositive_deadline(self):
        pool = WorkerPool(workers=1, max_pending=2)
        with pytest.raises(ValueError, match="deadline"):
            PrefetchScheduler(pool, deadline=0.0)
        pool.shutdown()
