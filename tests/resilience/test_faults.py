"""Unit tests for the deterministic fault-injection harness."""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs.metrics import reset_metrics
from repro.resilience.breaker import CircuitBreaker, OPEN
from repro.resilience.faults import (
    FaultInjector,
    FaultSpec,
    InjectedFault,
    active_injector,
    corrupt_bytes,
    fault_point,
    faults_from_env,
    install_faults,
    parse_faults,
)
from scrape import scraped


@pytest.fixture(autouse=True)
def _pristine_injector():
    """Every test leaves the process-global injector uninstalled."""
    install_faults(None)
    yield
    install_faults(None)


class TestParsing:
    def test_round_trips_the_env_document(self):
        injector = parse_faults(
            '{"seed": 7, "faults": ['
            '{"site": "store.artifact.read", "mode": "error", "rate": 0.2},'
            '{"site": "worker.request", "mode": "kill", "after": 5, "count": 1}'
            "]}"
        )
        assert isinstance(injector, FaultInjector)

    @pytest.mark.parametrize(
        "payload",
        [
            "not json",
            "[]",  # bare list: the seed would be lost
            '{"seed": 1}',  # no faults key
            '{"seed": 1, "faults": [{"site": "x", "mode": "explode"}]}',
            '{"seed": 1, "faults": [{"site": "x", "mode": "error", "rate": 2}]}',
        ],
    )
    def test_rejects_malformed_documents(self, payload):
        with pytest.raises(ValueError):
            parse_faults(payload)

    def test_faults_from_env(self, monkeypatch):
        monkeypatch.setenv(
            "BLAEU_FAULTS",
            '{"seed": 3, "faults": [{"site": "s", "mode": "error"}]}',
        )
        assert faults_from_env() is not None
        monkeypatch.setenv("BLAEU_FAULTS", "")
        assert faults_from_env() is None


class TestDeterminism:
    SPECS = [FaultSpec(site="store.*", mode="error", rate=0.3)]

    def _pattern(self, seed: int, hits: int = 200) -> list[bool]:
        injector = FaultInjector(list(self.SPECS), seed=seed)
        return [
            injector.fire("store.artifact.read") is not None
            for _ in range(hits)
        ]

    def test_same_seed_same_firing_pattern(self):
        assert self._pattern(seed=42) == self._pattern(seed=42)

    def test_rate_is_roughly_honoured(self):
        fired = sum(self._pattern(seed=42))
        assert 30 <= fired <= 90  # 200 hits at rate 0.3

    def test_different_seeds_decorrelate(self):
        patterns = {tuple(self._pattern(seed=s)) for s in range(5)}
        assert len(patterns) > 1


class TestWindows:
    def test_after_skips_the_warmup_hits(self):
        injector = FaultInjector(
            [FaultSpec(site="s", mode="error", after=2)], seed=0
        )
        assert injector.fire("s") is None
        assert injector.fire("s") is None
        assert injector.fire("s") is not None

    def test_count_bounds_total_fires(self):
        metrics = reset_metrics()
        injector = FaultInjector(
            [FaultSpec(site="s", mode="error", count=1)], seed=0
        )
        assert injector.fire("s") is not None
        assert injector.fire("s") is None
        assert scraped(metrics, "blaeu_faults_injected_total", site="s") == 1

    def test_site_globs_match(self):
        injector = FaultInjector(
            [FaultSpec(site="store.artifact.*", mode="error")], seed=0
        )
        assert injector.fire("store.artifact.read") is not None
        assert injector.fire("store.index") is None

    def test_mode_filters_keep_budgets_independent(self):
        # A torn rule must not be consumed (nor fired) by fault_point's
        # error-ish modes, and vice versa.
        injector = FaultInjector(
            [
                FaultSpec(site="s", mode="torn", count=1),
                FaultSpec(site="s", mode="error", count=1),
            ],
            seed=0,
        )
        spec = injector.fire("s", modes=("error",))
        assert spec is not None and spec.mode == "error"
        spec = injector.fire("s", modes=("torn",))
        assert spec is not None and spec.mode == "torn"


class TestFaultPoints:
    def test_noop_without_an_injector(self):
        fault_point("anything")  # must not raise
        assert corrupt_bytes("anything", b"abcd") == b"abcd"

    def test_installing_none_disarms_over_the_environment(self, monkeypatch):
        install_faults(FaultInjector([FaultSpec(site="s", mode="error")]))
        monkeypatch.setenv(
            "BLAEU_FAULTS", '{"faults": [{"site": "s", "mode": "error"}]}'
        )
        install_faults(None)
        fault_point("s")  # neither the old injector nor the variable fires
        assert active_injector() is None

    def test_error_mode_raises_an_oserror(self):
        install_faults(
            FaultInjector([FaultSpec(site="s", mode="error")], seed=0)
        )
        with pytest.raises(InjectedFault) as excinfo:
            fault_point("s")
        assert isinstance(excinfo.value, OSError)

    def test_latency_mode_delays_then_proceeds(self):
        install_faults(
            FaultInjector(
                [FaultSpec(site="s", mode="latency", seconds=0.01, count=1)],
                seed=0,
            )
        )
        fault_point("s")  # sleeps 10ms, returns
        fault_point("s")  # budget spent: pure no-op

    def test_torn_mode_halves_the_blob(self):
        install_faults(
            FaultInjector([FaultSpec(site="s", mode="torn")], seed=0)
        )
        assert corrupt_bytes("s", b"0123456789") == b"01234"


class TestStoreIntegration:
    """The injectors driving the real artifact cache (satellite tests)."""

    def _payload(self, seed: int) -> dict[str, object]:
        return {"seed": seed, "values": np.arange(512, dtype=np.float64)}

    def test_injected_read_errors_feed_the_breaker(self, tmp_path):
        from repro.store.artifacts import ArtifactCache

        install_faults(
            FaultInjector(
                [FaultSpec(site="store.artifact.read", mode="error")], seed=0
            )
        )
        breaker = CircuitBreaker(
            name="l2", failure_threshold=3, recovery_time=60.0
        )
        cache = ArtifactCache(tmp_path / "c", breaker=breaker)
        cache.put("k", self._payload(1))
        for _ in range(3):
            assert cache.get("k") is None  # injected IO error -> miss
        assert breaker.state == OPEN
        # Open breaker short-circuits: still a miss, but the disk (and
        # the fault point in front of it) is no longer touched — with
        # the faults gone, the whole entry on disk is still not read.
        install_faults(None)
        assert cache.get("k") is None
        assert len(cache) == 1

    @pytest.mark.parametrize("mode", ["torn", "error"])
    def test_write_fault_during_an_evicting_put_keeps_the_census(
        self, tmp_path, mode
    ):
        from repro.store.artifacts import ArtifactCache
        from repro.store.codec import encode

        entry_bytes = len(encode(self._payload(0)))
        ticks = iter(range(1000))
        budget = entry_bytes * 2 + 64
        cache = ArtifactCache(
            tmp_path / "c",
            max_bytes=budget,
            clock=lambda: float(next(ticks)),
        )
        cache.put("a", self._payload(1))
        cache.put("b", self._payload(2))
        install_faults(
            FaultInjector(
                [FaultSpec(site="store.artifact.write", mode=mode, count=1)],
                seed=0,
            )
        )
        metrics = reset_metrics()
        # Over budget: a torn write still publishes (half) its bytes and
        # evicts "a"; a failed one publishes nothing and evicts nothing.
        assert cache.put("c", self._payload(3)) is (mode == "torn")
        install_faults(None)
        survivors = {key for key in "abc" if cache.get(key) is not None}
        if mode == "torn":
            assert survivors == {"b"}
            # "c" failed its checksum
            assert scraped(metrics, "blaeu_artifact_cache_quarantined_total") == 1
        else:
            assert survivors == {"a", "b"}
        on_disk = sorted((cache.root / "objects").glob("*/*.art"))
        stats = cache.stats()
        assert stats.entries == len(on_disk) == len(survivors)
        assert stats.total_bytes == sum(p.stat().st_size for p in on_disk)
        # The recomputed "c" lands, inside the budget.
        assert cache.put("c", self._payload(3)) is True
        assert cache.get("c") is not None
        assert cache.stats().total_bytes <= budget
