"""The on-disk artifact cache: crash safety, races, eviction, quarantine.

The cross-process tests run real subprocesses against one cache root —
the exact deployment shape of ``blaeu serve --workers N``, where every
worker mounts the same directory as its L2 tier.
"""

from __future__ import annotations

import contextlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.obs.metrics import reset_metrics
from repro.store.artifacts import ArtifactCache, _key_hash
from repro.store.codec import encode
from scrape import scraped

SRC = str(Path(__file__).resolve().parents[2] / "src")
TESTS = str(Path(__file__).resolve().parents[1])
#: The child processes import ``repro`` and the tests' helpers.
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, TESTS])}


def _payload(seed: int, n: int = 512) -> dict[str, object]:
    return {"seed": seed, "values": np.arange(n, dtype=np.float64) + seed}


def _objects_on_disk(cache: ArtifactCache) -> list[Path]:
    return sorted((cache.root / "objects").glob("*/*.art"))


def _ticking(start: int = 0):
    """A clock that advances one second per reading."""
    ticks = iter(range(start, start + 10_000))
    return lambda: float(next(ticks))


#: Audit events seen while a test records (``None``: not recording).
#: Audit hooks cannot be removed, so one hook is installed for the
#: process and switched by this list.
_AUDITED: list[tuple[str, tuple]] | None = None
_HOOKED = False


@contextlib.contextmanager
def _audited():
    """Record every file open and directory listing in the block."""
    global _AUDITED, _HOOKED
    if not _HOOKED:

        def hook(event: str, args: tuple) -> None:
            if _AUDITED is not None and event in ("open", "os.scandir", "os.listdir"):
                _AUDITED.append((event, args))

        sys.addaudithook(hook)
        _HOOKED = True
    _AUDITED = events = []
    try:
        yield events
    finally:
        _AUDITED = None


class TestBasics:
    def test_miss_then_hit_round_trip(self, tmp_path):
        cache = ArtifactCache(tmp_path / "c")
        key = ("stage", "cluster", "fp", "cfg")
        assert cache.get(key) is None
        assert cache.put(key, _payload(1)) is True
        again = cache.get(key)
        np.testing.assert_array_equal(
            again["values"], _payload(1)["values"]
        )
        assert cache.stats().entries == 1

    def test_survives_a_process_restart(self, tmp_path):
        root = tmp_path / "c"
        ArtifactCache(root).put("k", _payload(7))
        reborn = ArtifactCache(root)  # a fresh process would do this
        value = reborn.get("k")
        assert value is not None and value["seed"] == 7

    def test_unencodable_values_refuse_politely(self, tmp_path):
        cache = ArtifactCache(tmp_path / "c")
        assert cache.put("k", object()) is False
        assert cache.get("k") is None
        assert len(cache) == 0


class TestEviction:
    def test_lru_eviction_respects_the_byte_budget(self, tmp_path):
        metrics = reset_metrics()
        one_entry = len(encode(_payload(0)))
        clock = iter(range(1000))
        budget = one_entry * 3 + 16
        cache = ArtifactCache(
            tmp_path / "c",
            max_bytes=budget,
            clock=lambda: float(next(clock)),
        )
        for i in range(6):
            cache.put(f"k{i}", _payload(i))
        assert cache.stats().total_bytes <= budget
        assert scraped(metrics, "blaeu_artifact_cache_evictions_total") >= 3
        # The most recent keys survive, the oldest are gone.
        assert cache.get("k5") is not None
        assert cache.get("k0") is None

    def test_recently_read_entries_survive(self, tmp_path):
        one_entry = len(encode(_payload(0)))
        clock = iter(range(1000))
        cache = ArtifactCache(
            tmp_path / "c",
            max_bytes=one_entry * 2 + 16,
            clock=lambda: float(next(clock)),
        )
        cache.put("a", _payload(1))
        cache.put("b", _payload(2))
        assert cache.get("a") is not None  # refresh a's recency
        cache.put("c", _payload(3))  # must evict b, not a
        assert cache.get("a") is not None
        assert cache.get("b") is None

    def test_an_oversized_entry_cannot_wedge_the_cache(self, tmp_path):
        cache = ArtifactCache(tmp_path / "c", max_bytes=64)
        assert cache.put("big", _payload(1, n=4096)) is True
        # The entry itself exceeded the budget: it is evicted again,
        # but the cache stays functional.
        assert cache.stats().total_bytes <= 64 or len(cache) == 0

    def test_writes_far_under_budget_skip_the_census(self, tmp_path, monkeypatch):
        one_entry = len(encode(_payload(0)))
        cache = ArtifactCache(tmp_path / "c", max_bytes=one_entry * 100)
        cache.put("first", _payload(0))  # this process's first census
        listed = []
        scandir = os.scandir
        monkeypatch.setattr(
            os, "scandir", lambda path: listed.append(path) or scandir(path)
        )
        for i in range(40):  # under half the 99 entries of headroom
            cache.put(f"k{i}", _payload(i))
        assert listed == []
        for i in range(40, 60):
            cache.put(f"k{i}", _payload(i))
        assert listed, "a writer past half its headroom must count again"

    def test_equal_stamps_evict_in_name_order(self, tmp_path):
        one_entry = len(encode(_payload(0)))
        keys = [f"k{i}" for i in range(6)]
        survivors = []
        for run in ("first", "second"):
            cache = ArtifactCache(
                tmp_path / run, max_bytes=one_entry * 3 + 16, clock=lambda: 5.0
            )
            for i, key in enumerate(keys):
                cache.put(key, _payload(i))
            survivors.append([path.name for path in _objects_on_disk(cache)])
        # Every put past the third sheds the smallest name on disk.
        expected: list[str] = []
        for key in keys:
            expected = sorted([*expected, f"{_key_hash(key)}.art"])[-3:]
        assert survivors == [expected, expected]

    def test_recency_crosses_processes(self, tmp_path):
        """A read in one process protects the entry from an eviction
        another process's write triggers."""
        script = r"""
import sys
import numpy as np
from repro.obs.metrics import get_metrics
from repro.store.artifacts import ArtifactCache
from scrape import scraped

root, budget, verb, key = sys.argv[1:5]
cache = ArtifactCache(root, max_bytes=int(budget))
if verb == "get":
    assert cache.get(key) is not None
else:
    value = {"seed": 9, "values": np.arange(512, dtype=np.float64) + 9}
    assert cache.put(key, value) is True
print(int(scraped(get_metrics(), "blaeu_artifact_cache_evictions_total")))
"""
        one_entry = len(encode(_payload(0)))
        budget = one_entry * 3 + 16
        root = tmp_path / "shared"
        # Three entries stamped long ago, "a" the oldest.
        seeded = ArtifactCache(root, max_bytes=budget, clock=_ticking(100))
        for i, key in enumerate("abc"):
            seeded.put(key, _payload(i))

        def run(verb: str, key: str) -> str:
            result = subprocess.run(
                [sys.executable, "-c", script, str(root), str(budget), verb, key],
                env=ENV,
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert result.returncode == 0, result.stderr
            return result.stdout.strip()

        assert run("get", "a") == "0"  # process B reads "a"
        assert run("put", "d") == "1"  # process A's write evicts one
        cache = ArtifactCache(root, max_bytes=budget)
        assert cache.get("b") is None  # the least recently used went
        assert all(cache.get(key) is not None for key in "acd")

    def test_a_directory_left_by_the_index_version_is_served(self, tmp_path):
        """The layout the index-keeping version wrote — its objects plus
        an ``index.json`` that even lists an object no longer on disk —
        is served, counted and evicted from the objects alone."""
        metrics = reset_metrics()
        root = tmp_path / "c"
        one_entry = len(encode(_payload(0)))
        index = {}
        for i, key in enumerate("abc"):
            name = _key_hash(key)
            path = root / "objects" / name[:2] / f"{name}.art"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(encode(_payload(i)))
            os.utime(path, ns=(i * 10**9, i * 10**9))
            index[name] = {
                "key": repr(key),
                "nbytes": one_entry,
                "created": float(i),
                "last_used": float(i),
            }
        index["f" * 64] = {
            "key": "'gone'",
            "nbytes": 10**9,
            "created": 0.0,
            "last_used": 0.0,
        }
        (root / "index.json").write_text(json.dumps(index), encoding="utf-8")
        (root / "index.lock").touch()
        left_behind = (root / "index.json").read_bytes()

        cache = ArtifactCache(
            root, max_bytes=one_entry * 3 + 16, clock=_ticking(100)
        )
        stats = cache.stats()
        assert (stats.entries, stats.total_bytes) == (3, 3 * one_entry)
        assert cache.get("b")["seed"] == 1
        assert cache.put("d", _payload(3)) is True  # evicts "a", the oldest
        assert scraped(metrics, "blaeu_artifact_cache_evictions_total") == 1
        assert cache.get("a") is None
        assert all(cache.get(key) is not None for key in "bcd")
        assert len(cache) == 3
        assert (root / "index.json").read_bytes() == left_behind
        assert (root / "index.lock").exists()


class TestAHitIsOneRead:
    @pytest.mark.parametrize("entries", [1, 500])
    def test_a_hit_opens_one_object_and_lists_nothing(
        self, tmp_path, monkeypatch, entries
    ):
        cache = ArtifactCache(tmp_path / "c")
        for i in range(entries):
            cache.put(("k", i), {"i": i})

        def no_listing(*_args, **_kwargs):
            raise AssertionError("a hit listed a directory")

        monkeypatch.setattr(os, "scandir", no_listing)
        with _audited() as events:
            value = cache.get(("k", 0))
        assert value == {"i": 0}
        opened = [
            Path(os.fsdecode(args[0]))
            for event, args in events
            if event == "open" and isinstance(args[0], (str, bytes, os.PathLike))
        ]
        opened = [path for path in opened if tmp_path in path.parents]
        assert [path.name for path in opened] == [f"{_key_hash(('k', 0))}.art"]
        assert not [event for event, _ in events if event != "open"]


QUARANTINED = "blaeu_artifact_cache_quarantined_total"


class TestCorruption:
    def _object_file(self, cache: ArtifactCache, key: object) -> Path:
        name = _key_hash(key)
        return cache.root / "objects" / name[:2] / f"{name}.art"

    def test_torn_write_is_quarantined_and_recomputed(self, tmp_path):
        metrics = reset_metrics()
        cache = ArtifactCache(tmp_path / "c")
        cache.put("k", _payload(3))
        path = self._object_file(cache, "k")
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])  # simulate torn write
        assert cache.get("k") is None  # detected, reported as a miss
        assert scraped(metrics, QUARANTINED) == 1
        quarantined = list((cache.root / "quarantine").iterdir())
        assert len(quarantined) == 1
        # The caller recomputes and re-publishes; the entry heals.
        assert cache.put("k", _payload(3)) is True
        assert cache.get("k") is not None

    def test_flipped_byte_fails_checksum_and_quarantines(self, tmp_path):
        metrics = reset_metrics()
        cache = ArtifactCache(tmp_path / "c")
        cache.put("k", _payload(4))
        path = self._object_file(cache, "k")
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert cache.get("k") is None
        assert scraped(metrics, QUARANTINED) == 1

    def test_the_census_after_a_quarantine_is_the_files_on_disk(self, tmp_path):
        metrics = reset_metrics()
        cache = ArtifactCache(tmp_path / "c")
        for key in "abc":
            cache.put(key, _payload(1))
        path = self._object_file(cache, "b")
        path.write_bytes(path.read_bytes()[:100])
        assert cache.get("b") is None
        on_disk = _objects_on_disk(cache)
        stats = cache.stats()
        assert scraped(metrics, QUARANTINED) == 1
        assert stats.entries == len(on_disk) == 2
        assert stats.total_bytes == sum(path.stat().st_size for path in on_disk)


_RACE_SCRIPT = r"""
import sys
from repro.store.artifacts import ArtifactCache
import numpy as np

root, seed = sys.argv[1], int(sys.argv[2])
cache = ArtifactCache(root)
key = ("contended", "key")
value = {"seed": seed, "values": np.arange(2048, dtype=np.float64)}
wrote = 0
for _ in range(30):
    assert cache.put(key, value) is True
    wrote += 1
    got = cache.get(key)
    # Readers racing writers must always see a COMPLETE artifact of
    # either generation — never a torn one (get would return None
    # after quarantining it).
    assert got is not None, "observed a torn artifact"
    assert got["values"].shape == (2048,)
print(wrote)
"""

_EVICTION_RACE_SCRIPT = r"""
import sys
from repro.obs.metrics import get_metrics
from repro.store.artifacts import ArtifactCache
from scrape import scraped
import numpy as np

root, budget, worker = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
cache = ArtifactCache(root, max_bytes=budget)
for i in range(25):
    key = ("worker", worker, i)
    assert cache.put(key, {"values": np.arange(512, dtype=np.float64)}) is True
    for j in range(i + 1):
        # An entry another writer evicted is a miss; a torn one would
        # be quarantined and counted.
        cache.get(("worker", worker, j))
print(int(scraped(get_metrics(), "blaeu_artifact_cache_quarantined_total")))
"""


class TestCrossProcess:
    def test_two_processes_racing_one_key_never_tear(self, tmp_path):
        metrics = reset_metrics()
        root = str(tmp_path / "shared")
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _RACE_SCRIPT, root, str(seed)],
                env=ENV,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for seed in (1, 2)
        ]
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            assert out.strip() == "30"
        # Afterwards the key holds one complete generation.
        cache = ArtifactCache(root)
        final = cache.get(("contended", "key"))
        assert final is not None and final["seed"] in (1, 2)
        assert scraped(metrics, QUARANTINED) == 0
        assert not list((cache.root / "quarantine").iterdir())

    def test_writers_evicting_together_never_tear_or_overshoot(self, tmp_path):
        """More writers than cores, all over budget at once: reads see
        whole artifacts or misses, and the next write lands the
        directory back inside its budget."""
        one_entry = len(encode({"values": np.arange(512, dtype=np.float64)}))
        budget = one_entry * 5 + 16
        root = tmp_path / "shared"
        procs = [
            subprocess.Popen(
                [
                    sys.executable,
                    "-c",
                    _EVICTION_RACE_SCRIPT,
                    str(root),
                    str(budget),
                    str(worker),
                ],
                env=ENV,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for worker in range(4)
        ]
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            assert out.strip() == "0"
        cache = ArtifactCache(root, max_bytes=budget)
        assert cache.put("last", _payload(0)) is True
        assert cache.stats().total_bytes <= budget
        assert not list((root / "quarantine").iterdir())
        assert not list((root / "tmp").iterdir())

    def test_per_key_lock_excludes_across_processes(self, tmp_path):
        root = str(tmp_path / "shared")
        script = r"""
import sys, time
from repro.store.artifacts import ArtifactCache

cache = ArtifactCache(sys.argv[1])
with cache.lock("the-key"):
    stamp = time.time()
    time.sleep(0.5)
print(repr((stamp, time.time())))
"""
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, root],
                env=ENV,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for _ in range(2)
        ]
        spans = []
        for proc in procs:
            out, err = proc.communicate(timeout=60)
            assert proc.returncode == 0, err
            spans.append(eval(out.strip()))  # noqa: S307 - our output
        spans.sort()
        # Critical sections must not overlap: the later one starts
        # after the earlier one ends.
        assert spans[1][0] >= spans[0][1] - 0.01

    def test_fresh_process_serves_the_map_with_zero_stage_recompute(
        self, tmp_path
    ):
        """The warm-restart acceptance check, at the builder level.

        Process A builds a map through a tiered cache over the shared
        directory; process B (a fresh ArtifactCache + MapBuilder, as
        after a worker restart) must serve the same map purely from
        disk: one map-cache hit, zero stage misses, bit-identical map.
        """
        script = r"""
import json, sys
from repro.core.config import BlaeuConfig
from repro.core.pipeline import STAGES, MapBuilder
from repro.obs.metrics import get_metrics
from synthetic import mixed_blobs
from repro.service.cache import LRUCache, TieredCache
from repro.store.artifacts import ArtifactCache

root = sys.argv[1]
table = mixed_blobs(n_rows=260, k=2, seed=33).table
config = BlaeuConfig(map_k_values=(2, 3), seed=9)
cache = TieredCache(LRUCache(max_size=64), ArtifactCache(root))
builder = MapBuilder(result_cache=cache)
columns = tuple(table.column_names[:4])
data_map = builder.build(table, columns, config=config)
metrics = get_metrics()
print(json.dumps({
    "map": data_map.to_dict(),
    "map_hits": metrics.counter("blaeu_pipeline_map_hits_total"),
    "stage_misses": sum(
        metrics.counter(f"blaeu_pipeline_{stage}_misses_total")
        for stage in STAGES
    ),
}))
"""
        root = str(tmp_path / "shared")
        runs = []
        for _ in range(2):
            result = subprocess.run(
                [sys.executable, "-c", script, root],
                env=ENV,
                capture_output=True,
                text=True,
                timeout=300,
            )
            assert result.returncode == 0, result.stderr
            runs.append(__import__("json").loads(result.stdout))
        cold, warm = runs
        assert cold["map_hits"] == 0 and cold["stage_misses"] > 0
        assert warm["map_hits"] == 1, "restart did not hit the disk tier"
        assert warm["stage_misses"] == 0, "restart recomputed stages"
        assert warm["map"] == cold["map"], "maps differ across processes"


@pytest.mark.parametrize("bad", [0, -5])
def test_rejects_nonpositive_budget(tmp_path, bad):
    with pytest.raises(ValueError):
        ArtifactCache(tmp_path / "c", max_bytes=bad)
