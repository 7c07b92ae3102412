"""Unit tests for the circuit breaker, driven by a fake clock.

The breaker keeps only its state; its opens and short-circuits are
counted in the process-global registry, read here as a scraper does.
"""

from __future__ import annotations

import threading

import pytest

from repro.obs.metrics import reset_metrics
from repro.resilience.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
)
from scrape import scraped


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make(clock, **overrides) -> CircuitBreaker:
    kwargs = dict(
        name="test",
        failure_threshold=3,
        recovery_time=5.0,
    )
    kwargs.update(overrides)
    return CircuitBreaker(clock=clock, **kwargs)


def opens(metrics) -> float:
    return scraped(
        metrics,
        "blaeu_resilience_breaker_transitions_total",
        breaker="test",
        to="open",
    )


def short_circuits(metrics) -> float:
    return scraped(
        metrics, "blaeu_resilience_breaker_short_circuits_total", breaker="test"
    )


class TestTripping:
    def test_stays_closed_below_the_threshold(self):
        breaker = make(FakeClock())
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_consecutive_failures_trip_it_open(self):
        metrics = reset_metrics()
        breaker = make(FakeClock())
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == OPEN
        assert opens(metrics) == 1

    def test_a_success_resets_the_failure_streak(self):
        breaker = make(FakeClock())
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED  # never three in a row

    def test_open_short_circuits_without_touching_the_dependency(self):
        metrics = reset_metrics()
        breaker = make(FakeClock())
        for _ in range(3):
            breaker.record_failure()
        assert not breaker.allow()
        assert not breaker.allow()
        assert short_circuits(metrics) == 2


class TestRecovery:
    def test_half_open_after_the_recovery_window(self):
        clock = FakeClock()
        breaker = make(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(4.9)
        assert breaker.state == OPEN
        clock.advance(0.2)
        assert breaker.state == HALF_OPEN

    def test_half_open_admits_a_bounded_probe(self):
        clock = FakeClock()
        breaker = make(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()  # the probe
        assert not breaker.allow()  # everyone else keeps short-circuiting

    def test_probe_success_closes_it(self):
        clock = FakeClock()
        breaker = make(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_probe_failure_reopens_for_another_full_window(self):
        metrics = reset_metrics()
        clock = FakeClock()
        breaker = make(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert opens(metrics) == 2
        clock.advance(4.9)
        assert breaker.state == OPEN  # window restarted at the re-open


class TestLatencyThreshold:
    def test_slow_successes_count_as_failures(self):
        breaker = make(FakeClock(), latency_threshold=0.1)
        for _ in range(3):
            breaker.record_success(seconds=0.5)
        assert breaker.state == OPEN

    def test_fast_successes_do_not(self):
        breaker = make(FakeClock(), latency_threshold=0.1)
        for _ in range(10):
            breaker.record_success(seconds=0.01)
        assert breaker.state == CLOSED


class TestThreadSafety:
    def test_concurrent_failures_trip_exactly_once(self):
        metrics = reset_metrics()
        breaker = make(FakeClock(), failure_threshold=8)
        barrier = threading.Barrier(8)

        def fail():
            barrier.wait()
            breaker.record_failure()

        threads = [threading.Thread(target=fail) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert breaker.state == OPEN
        assert opens(metrics) == 1


@pytest.mark.parametrize(
    "kwargs",
    [
        {"failure_threshold": 0},
        {"recovery_time": 0.0},
        {"recovery_time": -1.0},
    ],
)
def test_rejects_bad_parameters(kwargs):
    with pytest.raises(ValueError):
        CircuitBreaker(**kwargs)
