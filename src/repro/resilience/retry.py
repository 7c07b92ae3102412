"""Retry budgeting and jittered backoff for the supervisor proxy.

Retries must not amplify an outage: if every client retry spawned
another upstream attempt, a fleet at 2x capacity would see 4x traffic.
:class:`RetryBudget` is a token bucket refilled by *successful first
attempts* — each completed request deposits ``ratio`` tokens, each retry
spends one — so retries are capped at roughly ``ratio`` of live traffic
and dry up during a full outage instead of hammering it.

``jittered_backoff`` is decorrelated jitter over an exponential base;
pass an ``rng`` for deterministic tests.
"""

from __future__ import annotations

import random
import threading

__all__ = ["RetryBudget", "jittered_backoff"]


class RetryBudget:
    def __init__(self, *, ratio: float = 0.1, burst: float = 10.0):
        if burst < 1:
            raise ValueError("burst must be >= 1")
        self._ratio = max(ratio, 0.0)
        self._burst = float(burst)
        self._tokens = float(burst)
        self._lock = threading.Lock()

    def record_request(self) -> None:
        """Deposit for one completed first attempt."""
        with self._lock:
            self._tokens = min(self._burst, self._tokens + self._ratio)

    def try_spend(self) -> bool:
        """Take one token for a retry; False means the budget is exhausted."""
        with self._lock:
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return True
            return False


def jittered_backoff(
    attempt: int,
    *,
    base: float = 0.05,
    rng: random.Random | None = None,
) -> float:
    """Sleep span before retry ``attempt`` (0-based): full jitter over
    an exponentially growing window, capped at one second."""
    window = min(1.0, base * (2 ** max(attempt, 0)))
    draw = (rng or random).random()
    return window * (0.5 + 0.5 * draw)
