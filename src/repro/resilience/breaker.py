"""A three-state circuit breaker for flaky dependencies.

Wraps the L2 disk artifact tier: consecutive IO errors (or calls slower
than ``latency_threshold``) trip the breaker **open**, after which calls
short-circuit without touching the disk — the cache serves L1 or
recomputes.  After ``recovery_time`` the breaker goes **half-open** and
lets one probe call through; its success closes it, its failure
re-opens it.

Thread-safe (the artifact cache is hit from pool threads) and clocked by
an injectable ``clock`` so tests drive state transitions without
sleeping.  Its events are counted in the process-global metrics
registry alone: state transitions as
``blaeu_resilience_breaker_transitions_total{breaker,to}`` (an open is
``to="open"``) and refused calls as
``blaeu_resilience_breaker_short_circuits_total{breaker}``.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from repro.obs.metrics import get_metrics

__all__ = ["CircuitBreaker"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: Gauge encoding used by /metrics: closed=0, half_open=1, open=2.
STATE_CODES = {CLOSED: 0, HALF_OPEN: 1, OPEN: 2}


class CircuitBreaker:
    def __init__(
        self,
        *,
        name: str = "breaker",
        failure_threshold: int = 3,
        recovery_time: float = 5.0,
        latency_threshold: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if recovery_time <= 0:
            raise ValueError("recovery_time must be positive")
        self.name = name
        self._failure_threshold = failure_threshold
        self._recovery_time = recovery_time
        self._latency_threshold = latency_threshold
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probing = False

    @property
    def state(self) -> str:
        with self._lock:
            return self._peek_state()

    def _peek_state(self) -> str:
        # Lazily promote open -> half_open once the recovery window has
        # elapsed; callers hold self._lock.
        if self._state == OPEN and (
            self._clock() - self._opened_at >= self._recovery_time
        ):
            self._transition(HALF_OPEN)
            self._probing = False
        return self._state

    def _transition(self, state: str) -> None:
        if state == self._state:
            return
        self._state = state
        get_metrics().increment_labeled(
            "blaeu_resilience_breaker_transitions_total",
            {"breaker": self.name, "to": state},
        )

    def allow(self) -> bool:
        """True if a call may proceed; counts a short-circuit otherwise."""
        with self._lock:
            state = self._peek_state()
            if state == CLOSED:
                return True
            if state == HALF_OPEN and not self._probing:
                self._probing = True
                return True
            get_metrics().increment_labeled(
                "blaeu_resilience_breaker_short_circuits_total",
                {"breaker": self.name},
            )
            return False

    def record_success(self, seconds: float = 0.0) -> None:
        if (
            self._latency_threshold is not None
            and seconds > self._latency_threshold
        ):
            self.record_failure()
            return
        with self._lock:
            if self._state == HALF_OPEN:
                self._transition(CLOSED)
            self._consecutive_failures = 0

    def record_failure(self) -> None:
        with self._lock:
            if self._state == HALF_OPEN:
                self._open()
                return
            self._consecutive_failures += 1
            if (
                self._state == CLOSED
                and self._consecutive_failures >= self._failure_threshold
            ):
                self._open()

    def _open(self) -> None:
        self._transition(OPEN)
        self._opened_at = self._clock()
        self._consecutive_failures = 0
