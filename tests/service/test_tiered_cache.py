"""The two-tier result cache: promotion, best-effort disk, tier counts."""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs.metrics import reset_metrics
from repro.service.cache import LRUCache, TieredCache
from repro.store.artifacts import ArtifactCache, _key_hash
from scrape import scraped

HITS = "blaeu_cache_hits_total"
MISSES = "blaeu_cache_misses_total"
L1 = {"tier": "l1"}
L2 = {"tier": "l2"}


def _tiered(tmp_path, max_size: int = 8, max_bytes: int = 1 << 30) -> TieredCache:
    return TieredCache(
        LRUCache(max_size=max_size),
        ArtifactCache(tmp_path / "disk", max_bytes=max_bytes),
    )


def _restarted(cache: TieredCache) -> TieredCache:
    """A fresh L1 over the same disk tier, as after an eviction or a
    worker restart."""
    return TieredCache(LRUCache(max_size=8), cache.disk)


# One disk-tier event each; what the registry must then hold.


def _l1_hit(tmp_path):
    cache = _tiered(tmp_path)
    cache.put("k", {"v": 1})
    cache.get("k")


def _l2_hit(tmp_path):
    cache = _tiered(tmp_path)
    cache.put("k", {"v": 1})
    _restarted(cache).get("k")


def _miss(tmp_path):
    _tiered(tmp_path).get("absent")


def _skip(tmp_path):
    _tiered(tmp_path).put("k", object())


def _evict(tmp_path):
    _tiered(tmp_path, max_bytes=1).put("k", {"v": 1})


def _quarantine(tmp_path):
    cache = _tiered(tmp_path)
    cache.put("k", {"v": 1})
    name = _key_hash("k")
    path = cache.disk.root / "objects" / name[:2] / f"{name}.art"
    path.write_bytes(path.read_bytes()[:10])
    _restarted(cache).get("k")


_DISK_SERIES = ("hits", "misses", "writes", "write_skips", "evictions", "quarantined")
_DISK_EVENTS = [
    (_l1_hit, {"writes": 1}),
    (_l2_hit, {"writes": 1, "hits": 1}),
    (_miss, {"misses": 1}),
    (_skip, {"write_skips": 1}),
    (_evict, {"writes": 1, "evictions": 1}),
    (_quarantine, {"writes": 1, "misses": 1, "quarantined": 1}),
]


class TestReads:
    def test_memory_hit_never_touches_disk(self, tmp_path):
        metrics = reset_metrics()
        cache = _tiered(tmp_path)
        cache.put("k", {"v": 1})
        assert cache.get("k") == {"v": 1}
        assert scraped(metrics, HITS, **L1) == 1
        assert scraped(metrics, "blaeu_artifact_cache_hits_total") == 0
        assert scraped(metrics, MISSES, **L2) == 0

    def test_disk_fallthrough_promotes_into_memory(self, tmp_path):
        metrics = reset_metrics()
        cache = _tiered(tmp_path)
        cache.put("k", {"v": np.arange(4.0)})
        cache = _restarted(cache)
        value = cache.get("k")
        np.testing.assert_array_equal(value["v"], np.arange(4.0))
        assert scraped(metrics, HITS, **L2) == 1
        assert metrics.counter("blaeu_cache_promotions_total") == 1
        # The promoted entry now answers from L1.
        cache.get("k")
        assert scraped(metrics, HITS, **L1) == 1

    def test_a_second_process_view_shares_the_disk_tier(self, tmp_path):
        first = _tiered(tmp_path)
        first.put("k", {"v": 7})
        second = _tiered(tmp_path)  # fresh L1 over the same directory
        metrics = reset_metrics()
        assert second.get("k") == {"v": 7}
        assert scraped(metrics, HITS, **L2) == 1

    def test_full_miss_counts_once(self, tmp_path):
        metrics = reset_metrics()
        cache = _tiered(tmp_path)
        assert cache.get("absent") is None
        hits = (scraped(metrics, HITS, **L1), scraped(metrics, HITS, **L2))
        assert hits == (0, 0)
        assert scraped(metrics, MISSES, **L2) == 1

    def test_memory_only_mode_never_misses_the_absent_disk(self):
        cache = TieredCache(LRUCache(max_size=4), disk=None)
        cache.put("k", object())  # unencodable is fine: no disk tier
        assert cache.get("k") is not None
        assert cache.disk is None


class TestWrites:
    def test_unencodable_values_stay_memory_only(self, tmp_path):
        metrics = reset_metrics()
        cache = _tiered(tmp_path)
        cache.put("k", object())
        assert cache.get("k") is not None  # L1 has it
        assert metrics.counter("blaeu_artifact_cache_write_skips_total") == 1
        assert cache.disk.get("k") is None  # L2 politely declined


class TestTierMetrics:
    def test_hits_and_misses_split_by_tier_label(self, tmp_path):
        metrics = reset_metrics()
        cache = _tiered(tmp_path)
        cache.put("k", {"v": 1})
        cache.get("k")  # L1 hit
        cache = _restarted(cache)
        cache.get("k")  # L1 miss -> L2 hit + promotion
        cache.get("absent")  # miss in both tiers

        hits = "blaeu_cache_hits_total"
        misses = "blaeu_cache_misses_total"
        assert scraped(metrics, hits, tier="l1") == 1
        assert scraped(metrics, hits, tier="l2") == 1
        assert scraped(metrics, misses, tier="l1") == 2
        assert scraped(metrics, misses, tier="l2") == 1
        assert metrics.counter("blaeu_cache_promotions_total") == 1
        reset_metrics()

    def test_render_emits_one_type_line_per_family(self, tmp_path):
        metrics = reset_metrics()
        cache = _tiered(tmp_path)
        cache.put("k", {"v": 1})
        cache.get("k")
        _restarted(cache).get("k")
        text = metrics.render()
        assert text.count("# TYPE blaeu_cache_hits_total counter") == 1
        assert 'blaeu_cache_hits_total{tier="l1"} 1' in text
        assert 'blaeu_cache_hits_total{tier="l2"} 1' in text
        reset_metrics()


class TestDiskEventsCountOnce:
    @pytest.mark.parametrize(
        "event, expected",
        _DISK_EVENTS,
        ids=[event.__name__.strip("_") for event, _ in _DISK_EVENTS],
    )
    def test_each_disk_event_is_one_registry_count(self, tmp_path, event, expected):
        """The registry is the one copy of every disk-tier count: the
        tiered cache counts what it reads and writes through the disk,
        the disk counts what it evicts and quarantines."""
        metrics = reset_metrics()
        event(tmp_path)
        counts = {
            name: scraped(metrics, f"blaeu_artifact_cache_{name}_total")
            for name in _DISK_SERIES
        }
        assert counts == {name: expected.get(name, 0) for name in _DISK_SERIES}


class TestServiceGauges:
    def test_promotions_are_one_registry_counter(self, tmp_path, service_runner):
        """A promotion is counted once, as ``blaeu_cache_promotions_total``;
        ``/metrics`` renders no gauge copy of it."""
        from repro.core.config import BlaeuConfig
        from repro.core.engine import Blaeu
        from repro.service.config import CacheConfig, PoolConfig, ServiceConfig
        from synthetic import mixed_blobs

        engine = Blaeu(BlaeuConfig(map_k_values=(2, 3), seed=5))
        engine.register(mixed_blobs(n_rows=200, k=2, seed=61).table)
        config = ServiceConfig(
            port=0,
            cache=CacheConfig(dir=str(tmp_path / "l2")),
            pool=PoolConfig(threads=1, max_pending=8),
        )
        running = service_runner(engine, config).start()
        try:
            # Another worker's write, then this worker's first read.
            _restarted(running.service.engine.map_cache).put("k", {"v": 1})
            running.service.engine.map_cache.get("k")  # L1 miss -> L2 hit
            status, body = running.get("/metrics")
        finally:
            running.stop()
        assert status == 200
        text = body.decode()
        assert "blaeu_cache_promotions_total 1\n" in text
        assert "blaeu_artifact_cache_promotions" not in text
