"""Unit tests for the retry budget and jittered backoff."""

from __future__ import annotations

import random

import pytest

from repro.resilience.retry import RetryBudget, jittered_backoff


class TestRetryBudget:
    def test_starts_full_and_spends_down_to_empty(self):
        budget = RetryBudget(ratio=0.1, burst=3.0)
        assert budget.try_spend()
        assert budget.try_spend()
        assert budget.try_spend()
        assert not budget.try_spend()  # exhausted

    def test_requests_deposit_ratio_tokens(self):
        budget = RetryBudget(ratio=0.5, burst=10.0)
        for _ in range(10):
            budget.try_spend()
        assert not budget.try_spend()
        budget.record_request()
        budget.record_request()  # two completed requests -> one token
        assert budget.try_spend()
        assert not budget.try_spend()

    def test_deposits_cap_at_burst(self):
        budget = RetryBudget(ratio=1.0, burst=2.0)
        for _ in range(50):
            budget.record_request()
        assert [budget.try_spend() for _ in range(3)] == [True, True, False]

    def test_retries_dry_up_during_an_outage(self):
        # During a full outage every request retries but none succeeds:
        # spends outpace deposits 1 : ratio, so the bucket drains and
        # stays near empty instead of amplifying the hammering.
        budget = RetryBudget(ratio=0.2, burst=5.0)
        granted = 0
        for _ in range(100):
            budget.record_request()
            if budget.try_spend():
                granted += 1
        assert granted <= 5 + 100 * 0.2 + 1
        assert not budget.try_spend()

    def test_rejects_sub_one_burst(self):
        with pytest.raises(ValueError):
            RetryBudget(burst=0.5)


class TestJitteredBackoff:
    def test_deterministic_under_a_seeded_rng(self):
        first = [
            jittered_backoff(n, rng=random.Random(7)) for n in range(5)
        ]
        second = [
            jittered_backoff(n, rng=random.Random(7)) for n in range(5)
        ]
        assert first == second

    def test_stays_inside_the_jitter_window(self):
        rng = random.Random(123)
        for attempt in range(6):
            window = min(1.0, 0.05 * (2**attempt))
            for _ in range(50):
                delay = jittered_backoff(attempt, rng=rng)
                assert window * 0.5 <= delay <= window

    def test_window_grows_exponentially_then_caps(self):
        # rng pinned to the top of the window exposes the raw schedule.
        class Top:
            @staticmethod
            def random() -> float:
                return 1.0

        delays = [
            jittered_backoff(n, base=0.05, rng=Top())
            for n in range(8)
        ]
        assert delays[:5] == pytest.approx([0.05, 0.1, 0.2, 0.4, 0.8])
        assert delays[5:] == pytest.approx([1.0, 1.0, 1.0])  # capped

    def test_negative_attempts_clamp_to_the_first_window(self):
        assert jittered_backoff(-3, rng=random.Random(1)) <= 0.05
