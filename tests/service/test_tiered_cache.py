"""The two-tier result cache: promotion, best-effort disk, stats shape."""

from __future__ import annotations

import numpy as np

from repro.obs.metrics import reset_metrics
from repro.service.cache import CacheStats, LRUCache, TieredCache
from repro.store.artifacts import ArtifactCache
from scrape import scraped

HITS = "blaeu_cache_hits_total"
MISSES = "blaeu_cache_misses_total"
L1 = {"tier": "l1"}
L2 = {"tier": "l2"}


def _tiered(tmp_path, max_size: int = 8) -> TieredCache:
    return TieredCache(
        LRUCache(max_size=max_size), ArtifactCache(tmp_path / "disk")
    )


class TestReads:
    def test_memory_hit_never_touches_disk(self, tmp_path):
        metrics = reset_metrics()
        cache = _tiered(tmp_path)
        cache.put("k", {"v": 1})
        disk_reads_before = cache.disk.stats().hits
        assert cache.get("k") == {"v": 1}
        assert cache.disk.stats().hits == disk_reads_before
        assert scraped(metrics, HITS, **L1) == 1

    def test_disk_fallthrough_promotes_into_memory(self, tmp_path):
        metrics = reset_metrics()
        cache = _tiered(tmp_path)
        cache.put("k", {"v": np.arange(4.0)})
        cache.memory.clear()  # as after an eviction or a restart
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

    def test_clear_reaches_both_tiers(self, tmp_path):
        cache = _tiered(tmp_path)
        cache.put("a", {"v": 1})
        cache.put("b", {"v": 2})
        assert len(cache.disk) == 2
        cache.clear()
        assert cache.get("a") is None
        assert cache.get("b") is None
        assert len(cache.disk) == 0


class TestTierMetrics:
    def test_hits_and_misses_split_by_tier_label(self, tmp_path):
        metrics = reset_metrics()
        cache = _tiered(tmp_path)
        cache.put("k", {"v": 1})
        cache.get("k")  # L1 hit
        cache.memory.clear()
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
        cache.memory.clear()
        cache.get("k")
        text = metrics.render()
        assert text.count("# TYPE blaeu_cache_hits_total counter") == 1
        assert 'blaeu_cache_hits_total{tier="l1"} 1' in text
        assert 'blaeu_cache_hits_total{tier="l2"} 1' in text
        reset_metrics()


class TestStatsShape:
    def test_stats_stays_l1_shaped_for_duck_typed_callers(self, tmp_path):
        # /healthz reads .stats() off whatever cache the engine holds;
        # tiering must not change that surface.
        cache = _tiered(tmp_path)
        cache.put("k", {"v": 1})
        cache.get("k")
        stats = cache.stats()
        assert isinstance(stats, CacheStats)
        assert stats.hits == 1 and stats.size == 1

    def test_stats_is_the_memory_tier_snapshot(self, tmp_path):
        cache = _tiered(tmp_path)
        cache.put("k", {"v": 1})
        assert cache.stats() == cache.memory.stats()
        assert cache.stats().size == 1


class TestServiceGauges:
    def test_promotions_gauge_reads_the_registry(self, tmp_path, service_runner):
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
            cache = running.service.engine.map_cache
            cache.put("k", {"v": 1})
            cache.memory.clear()
            cache.get("k")  # L1 miss -> L2 hit + promotion
            status, body = running.get("/metrics")
        finally:
            running.stop()
        assert status == 200
        assert "blaeu_artifact_cache_promotions 1\n" in body.decode()
