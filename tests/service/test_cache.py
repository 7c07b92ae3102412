"""Unit tests for the shared LRU+TTL result cache.

The L1 keeps entries only: its lookups are counted by the
:class:`TieredCache` in front of it, and its evictions in the registry.
"""

import threading

import pytest

from repro.obs.metrics import reset_metrics
from repro.service.cache import LRUCache, TieredCache
from scrape import scraped


class FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestBasics:
    def test_miss_then_hit(self):
        metrics = reset_metrics()
        cache = TieredCache(LRUCache(max_size=4))
        assert cache.get("k") is None
        cache.put("k", "v")
        assert cache.get("k") == "v"
        assert scraped(metrics, "blaeu_cache_hits_total", tier="l1") == 1
        assert scraped(metrics, "blaeu_cache_misses_total", tier="l1") == 1

    def test_put_refreshes_value(self):
        cache = LRUCache(max_size=4)
        cache.put("k", "old")
        cache.put("k", "new")
        assert cache.get("k") == "new"
        assert len(cache) == 1

    def test_contains(self):
        cache = LRUCache(max_size=4)
        cache.put("k", "v")
        assert "k" in cache
        assert "other" not in cache

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="max_size"):
            LRUCache(max_size=0)
        with pytest.raises(ValueError, match="ttl"):
            LRUCache(max_size=1, ttl=0)


class TestEviction:
    def test_lru_entry_evicted_first(self):
        metrics = reset_metrics()
        cache = LRUCache(max_size=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)  # evicts "a"
        assert cache.get("a") is None
        assert cache.get("b") == 2
        assert cache.get("c") == 3
        assert scraped(metrics, "blaeu_cache_evictions_total") == 1

    def test_get_refreshes_recency(self):
        cache = LRUCache(max_size=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # "b" is now the LRU entry
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1

    def test_size_never_exceeds_bound(self):
        metrics = reset_metrics()
        cache = LRUCache(max_size=3)
        for i in range(10):
            cache.put(i, i)
        assert len(cache) == 3
        assert scraped(metrics, "blaeu_cache_evictions_total") == 7


class TestTTL:
    def test_entry_expires_after_ttl(self):
        clock = FakeClock()
        cache = LRUCache(max_size=4, ttl=10.0, clock=clock)
        cache.put("k", "v")
        clock.advance(9.0)
        assert cache.get("k") == "v"
        clock.advance(2.0)
        assert cache.get("k") is None
        assert len(cache) == 0

    def test_expired_entry_counts_as_miss(self):
        metrics = reset_metrics()
        clock = FakeClock()
        cache = TieredCache(LRUCache(max_size=4, ttl=1.0, clock=clock))
        cache.put("k", "v")
        clock.advance(2.0)
        cache.get("k")
        assert scraped(metrics, "blaeu_cache_misses_total", tier="l1") == 1
        assert scraped(metrics, "blaeu_cache_hits_total", tier="l1") == 0
        assert scraped(metrics, "blaeu_cache_evictions_total") == 0

    def test_contains_respects_ttl(self):
        clock = FakeClock()
        cache = LRUCache(max_size=4, ttl=1.0, clock=clock)
        cache.put("k", "v")
        assert "k" in cache
        clock.advance(1.5)
        assert "k" not in cache

    def test_put_resets_entry_age(self):
        clock = FakeClock()
        cache = LRUCache(max_size=4, ttl=10.0, clock=clock)
        cache.put("k", "v1")
        clock.advance(8.0)
        cache.put("k", "v2")
        clock.advance(8.0)  # 16s since first put, 8s since refresh
        assert cache.get("k") == "v2"


class TestConcurrency:
    def test_parallel_puts_and_gets_stay_bounded(self):
        cache = LRUCache(max_size=32)
        errors: list[Exception] = []

        def worker(base: int) -> None:
            try:
                for i in range(200):
                    cache.put((base, i % 40), i)
                    cache.get((base, (i + 1) % 40))
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(cache) <= 32
