"""Unit tests for per-request deadlines and their contextvar plumbing."""

from __future__ import annotations

import contextvars
import threading

import pytest

from repro.resilience.deadline import (
    Deadline,
    DeadlineExceeded,
    checkpoint,
    clear_deadline,
    current_deadline,
    deadline_scope,
    reset_deadline,
    set_deadline,
)


class FakeClock:
    def __init__(self, now: float = 100.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestDeadline:
    def test_after_mints_an_absolute_expiry(self):
        clock = FakeClock(now=10.0)
        deadline = Deadline.after(2.5, clock=clock)
        assert deadline.expires_at == pytest.approx(12.5)
        assert deadline.budget == pytest.approx(2.5)

    def test_remaining_counts_down_and_goes_negative(self):
        clock = FakeClock(now=0.0)
        deadline = Deadline.after(1.0, clock=clock)
        assert deadline.remaining(clock=clock) == pytest.approx(1.0)
        clock.advance(0.4)
        assert deadline.remaining(clock=clock) == pytest.approx(0.6)
        assert not deadline.expired(clock=clock)
        clock.advance(1.0)
        assert deadline.remaining(clock=clock) == pytest.approx(-0.4)
        assert deadline.expired(clock=clock)


class TestCheckpoint:
    def test_noop_without_a_deadline(self):
        assert current_deadline() is None
        checkpoint("stage.anything")  # must not raise

    def test_raises_once_past_with_stage_and_budget(self):
        clock = FakeClock(now=50.0)
        token = set_deadline(Deadline.after(0.1, clock=clock))
        try:
            checkpoint("stage.sample", clock=clock)  # still inside budget
            clock.advance(0.2)
            with pytest.raises(DeadlineExceeded) as excinfo:
                checkpoint("stage.sample", clock=clock)
            assert excinfo.value.stage == "stage.sample"
            assert excinfo.value.budget == pytest.approx(0.1)
            assert "stage.sample" in str(excinfo.value)
        finally:
            reset_deadline(token)

    def test_exceeded_is_a_runtime_error(self):
        # Background workers catch it as a cancellation; the HTTP layer
        # maps it to a structured 504.  Either way it must not be an
        # OSError (which the store retries) nor a bare Exception.
        assert issubclass(DeadlineExceeded, RuntimeError)


class TestScope:
    def test_installs_and_restores(self):
        assert current_deadline() is None
        with deadline_scope(5.0) as deadline:
            assert current_deadline() is deadline
            assert deadline is not None and deadline.budget == 5.0
        assert current_deadline() is None

    def test_nested_scopes_shadow_then_restore(self):
        with deadline_scope(10.0) as outer:
            with deadline_scope(1.0) as inner:
                assert current_deadline() is inner
            assert current_deadline() is outer

    def test_none_budget_clears_an_inherited_deadline(self):
        # The "no deadline" scope used by maintenance paths and tests.
        with deadline_scope(10.0):
            with deadline_scope(None):
                assert current_deadline() is None
                checkpoint("stage.anything")

    def test_restores_even_when_the_body_raises(self):
        with pytest.raises(ValueError):
            with deadline_scope(5.0):
                raise ValueError("boom")
        assert current_deadline() is None


class TestContextPropagation:
    def test_deadline_rides_a_copied_context_into_a_thread(self):
        # The WorkerPool submits jobs under contextvars.copy_context(),
        # so a deadline set in the request coroutine is visible at
        # checkpoints on the worker thread.
        clock = FakeClock(now=0.0)
        seen: list[Deadline | None] = []

        with deadline_scope(3.0, clock=clock):
            context = contextvars.copy_context()
        thread = threading.Thread(
            target=lambda: seen.append(context.run(current_deadline))
        )
        thread.start()
        thread.join()
        assert seen[0] is not None and seen[0].budget == pytest.approx(3.0)

    def test_clear_deadline_drops_the_inherited_budget(self):
        # Background tasks (refine, prefetch) start from a context copied
        # off a foreground request; clear_deadline() at their top means
        # a nearly-spent request budget cannot abort the speculation.
        with deadline_scope(0.000001):
            context = contextvars.copy_context()

        def background():
            clear_deadline()
            checkpoint("stage.prefetch")  # must not raise
            return current_deadline()

        assert context.run(background) is None
        # ...and the clear stays inside the copy: nothing leaks back.
        assert current_deadline() is None


class TestPipelineIntegration:
    @pytest.fixture(scope="class")
    def engine(self):
        from repro.core.config import BlaeuConfig
        from repro.core.engine import Blaeu
        from synthetic import mixed_blobs

        engine = Blaeu(BlaeuConfig(map_k_values=(2, 3), seed=5))
        engine.register(mixed_blobs(n_rows=300, k=2, seed=61).table)
        return engine

    def test_expired_deadline_aborts_the_build_cleanly(self, engine):
        # expires_at=0.0 is always in the past on the monotonic clock:
        # the first stage checkpoint must abort the pipeline.
        token = set_deadline(Deadline(expires_at=0.0, budget=0.001))
        try:
            with pytest.raises(DeadlineExceeded):
                engine.map("mixed_blobs", ("x0", "x1"), k=2)
        finally:
            reset_deadline(token)

    def test_generous_deadline_changes_nothing(self, engine):
        # Checkpoints are pure observers: a map built under a roomy
        # budget is bit-identical to one built with none at all.
        free = engine.map("mixed_blobs", ("x0", "x1"), k=2).to_dict()
        with deadline_scope(300.0):
            bounded = engine.map("mixed_blobs", ("x0", "x1"), k=2).to_dict()
        assert bounded == free
