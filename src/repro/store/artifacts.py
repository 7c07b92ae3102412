"""A crash-safe, size-bounded on-disk artifact cache (the L2 tier).

The staged pipeline made every expensive result an immutable artifact
under a content key; this module gives those artifacts a home that
survives process restarts and is shared between worker processes.
Design constraints, and how each is met:

* **Crash safety** — entries are written to a private temp file,
  fsynced, then published with ``os.replace`` (atomic on POSIX), so a
  concurrent reader sees either the old bytes or the new bytes, never a
  torn file.  The payload itself carries a sha256 (see
  :mod:`repro.store.codec`), so even damage *outside* the cache's
  control (a crash mid-``fsync``, disk corruption) is detected on read.
* **Cross-process coordination** — a per-key ``flock`` serializes
  writers of the same key, and :meth:`ArtifactCache.lock` exposes the
  same lock so callers can coordinate "compute once" across processes.
  Hosts without ``fcntl`` degrade to uncoordinated (still atomic)
  writes.
* **Bounded size** — the filesystem is the index: an object's size is
  its ``st_size`` and its last use its ``st_mtime``, stamped from the
  cache's clock on every write and every hit (one ``utime``, no lock),
  so a hit costs one file read whatever the entry count.  A write that
  leaves the directory over ``max_bytes`` takes the eviction lock and
  unlinks the least recently used objects; a write far under budget
  does not list the directory at all.
* **Corruption quarantine** — an entry that fails checksum or decode
  validation is moved into ``quarantine/`` (for post-mortems) and
  reported as a miss, so the caller transparently recomputes.

Evictions and quarantines are counted in the process-global registry
(``blaeu_artifact_cache_{evictions,quarantined}_total``); hits, misses
and writes are counted there by the tiered cache that reads and writes
through this one (:class:`~repro.service.cache.TieredCache`).

Layout of a cache directory::

    root/
      objects/ab/abcd….art  one artifact; its mtime is its last use
      locks/abcd….lock      per-key write locks
      evict.lock            flock held by the one evicting writer
      quarantine/           corrupted entries, moved aside
      tmp/                  in-flight writes

Older versions of this module also kept a JSON index and its lock file
at the root; a directory they left behind is served as-is, and those
two files are ignored.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from repro.obs.metrics import get_metrics
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.faults import corrupt_bytes, fault_point
from repro.store.codec import ArtifactCorruptError, CodecError, decode, encode

try:  # pragma: no cover - platform probe
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX host
    fcntl = None  # type: ignore[assignment]

__all__ = ["ArtifactCache", "ArtifactCacheStats", "DEFAULT_MAX_BYTES"]

#: Default size budget of a cache directory (1 GiB).
DEFAULT_MAX_BYTES = 1 << 30

_SUFFIX = ".art"


@dataclass(frozen=True)
class ArtifactCacheStats:
    """The census of a cache directory, which every process sharing it
    sees alike."""

    entries: int
    total_bytes: int


def _key_hash(key: object) -> str:
    """The stable on-disk identity of a cache key.

    ``repr`` of the key tuples is deterministic for the str/int/None
    leaves the pipeline uses — the same convention
    :func:`repro.table.sampling.seed_for` relies on.
    """
    return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()


class ArtifactCache:
    """Disk-backed ``get``/``put`` over codec-serializable artifacts.

    Parameters
    ----------
    root:
        Cache directory (created if missing).  Multiple processes may
        share one root; that is the point.
    max_bytes:
        Size budget; writers evict LRU entries beyond it.
    clock:
        Injectable time source (tests); it stamps each object's mtime.
    breaker:
        Optional circuit breaker guarding the disk.  Consecutive IO
        errors (or slow reads, when the breaker has a latency
        threshold) trip it open, after which ``get``/``put``
        short-circuit to a miss — the tiered cache above serves L1 or
        recomputes instead of hammering a sick disk.
    """

    def __init__(
        self,
        root: str | Path,
        max_bytes: int = DEFAULT_MAX_BYTES,
        clock: Callable[[], float] = time.time,
        breaker: CircuitBreaker | None = None,
    ) -> None:
        if max_bytes < 1:
            raise ValueError("max_bytes must be positive")
        self._root = Path(root)
        self._max_bytes = int(max_bytes)
        self._clock = clock
        self._breaker = breaker
        self._mutex = threading.Lock()  # guards the budget
        # Room under the budget at this process's last census, and the
        # bytes it has written since (see _evict).
        self._headroom = 0
        self._unchecked = 0
        for sub in ("objects", "locks", "quarantine", "tmp"):
            (self._root / sub).mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def root(self) -> Path:
        """The cache directory."""
        return self._root

    def stats(self) -> ArtifactCacheStats:
        """The on-disk entry census."""
        census = self._census()
        return ArtifactCacheStats(
            entries=len(census),
            total_bytes=sum(nbytes for _, _, nbytes, _ in census),
        )

    def __len__(self) -> int:
        return len(self._census())

    # ------------------------------------------------------------------
    # The cache surface (duck-compatible with LRUCache)
    # ------------------------------------------------------------------

    def get(self, key: object) -> object | None:
        """The decoded artifact, or ``None`` (absent or quarantined)."""
        if self._breaker is not None and not self._breaker.allow():
            return None
        name = _key_hash(key)
        path = self._object_path(name)
        started = time.monotonic()
        try:
            fault_point("store.artifact.read")
            blob = path.read_bytes()
        except FileNotFoundError:
            # Absence is a normal miss, not a disk fault.
            self._record_breaker(ok=True, started=started)
            return None
        except OSError:
            self._record_breaker(ok=False, started=started)
            return None
        self._record_breaker(ok=True, started=started)
        try:
            value = decode(blob)
        except ArtifactCorruptError as error:
            self._quarantine(name, path, error)
            return None
        self._stamp(path)
        return value

    def put(self, key: object, value: object) -> bool:
        """Serialize and publish ``value``; ``False`` if not encodable.

        Raising on unencodable values would make the disk tier more
        fragile than the memory tier it backs — the caller (the tiered
        cache) treats ``False`` as "memory-only entry".
        """
        if self._breaker is not None and not self._breaker.allow():
            return False
        try:
            blob = encode(value)
        except CodecError:
            return False
        # A "torn" fault truncates the published bytes: the atomic
        # rename still happens, but the payload fails its checksum on
        # read and lands in quarantine — exactly the damage class the
        # codec exists to catch.
        blob = corrupt_bytes("store.artifact.write", blob)
        name = _key_hash(key)
        path = self._object_path(name)
        tmp = self._root / "tmp" / f"{name}.{os.getpid()}.{threading.get_ident()}"
        started = time.monotonic()
        try:
            fault_point("store.artifact.write")
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(tmp, "wb") as handle:
                handle.write(blob)
                handle.flush()
                os.fsync(handle.fileno())
            with self.lock(key):
                os.replace(tmp, path)
        except OSError:
            self._record_breaker(ok=False, started=started)
            with contextlib.suppress(OSError):
                tmp.unlink()
            return False
        self._record_breaker(ok=True, started=started)
        self._stamp(path)
        self._evict(len(blob))
        return True

    @contextlib.contextmanager
    def lock(self, key: object) -> Iterator[None]:
        """An exclusive cross-process lock scoped to one key.

        Lets cooperating workers elect a single computer of an absent
        artifact instead of duplicating an expensive build.  Reentrant
        use from the same process is *not* supported (flock is per open
        file description, so this is for short critical sections).
        """
        with self._flock(self._root / "locks" / f"{_key_hash(key)}.lock"):
            yield

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _object_path(self, name: str) -> Path:
        return self._root / "objects" / name[:2] / f"{name}{_SUFFIX}"

    def _record_breaker(self, *, ok: bool, started: float) -> None:
        if self._breaker is None:
            return
        if ok:
            self._breaker.record_success(time.monotonic() - started)
        else:
            self._breaker.record_failure()

    @contextlib.contextmanager
    def _flock(self, path: Path) -> Iterator[None]:
        if fcntl is None:  # pragma: no cover - non-POSIX host
            yield
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "a+b") as handle:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    def _stamp(self, path: Path) -> None:
        """Record a use: an object's mtime is its recency.  Best effort —
        another process may have evicted the object meanwhile."""
        now = int(self._clock() * 1e9)
        with contextlib.suppress(OSError):
            os.utime(path, ns=(now, now))

    def _census(self) -> list[tuple[int, str, int, str]]:
        """``(mtime_ns, name, nbytes, path)`` of every object on disk.

        An object another process removes mid-listing is not counted.
        """
        census = []
        with contextlib.suppress(OSError), os.scandir(self._root / "objects") as shards:
            for shard in shards:
                with contextlib.suppress(OSError), os.scandir(shard.path) as objects:
                    for entry in objects:
                        if not entry.name.endswith(_SUFFIX):
                            continue
                        try:
                            stat = entry.stat()
                        except OSError:
                            continue
                        census.append(
                            (stat.st_mtime_ns, entry.name, stat.st_size, entry.path)
                        )
        return census

    def _evict(self, written: int) -> None:
        """Shed the least recently used objects beyond the byte budget.

        A census lists every shard, so a writer takes one only once the
        bytes it wrote since its last census could have filled half the
        headroom that census found: two writers cannot overrun the
        budget unseen, and a directory far below its budget is not
        listed on every write.  Only a census over budget takes the
        eviction lock; under it the census is taken again, since another
        writer may have evicted meanwhile.  Equal stamps go in name
        order, so the order is deterministic.
        """
        with self._mutex:
            self._unchecked += written
            if 2 * self._unchecked <= self._headroom:
                return
            self._unchecked = 0
        total = sum(nbytes for _, _, nbytes, _ in self._census())
        evicted = 0
        if total > self._max_bytes:
            with contextlib.suppress(OSError), self._flock(self._root / "evict.lock"):
                census = sorted(self._census())
                total = sum(nbytes for _, _, nbytes, _ in census)
                for _, _, nbytes, path in census:
                    if total <= self._max_bytes:
                        break
                    total -= nbytes
                    with contextlib.suppress(OSError):
                        os.unlink(path)
                        evicted += 1
        with self._mutex:
            self._headroom = max(self._max_bytes - total, 0)
        if evicted:
            get_metrics().increment("blaeu_artifact_cache_evictions_total", evicted)

    def _quarantine(self, name: str, path: Path, error: Exception) -> None:
        """Move a failed entry aside; the caller recomputes."""
        target = self._root / "quarantine" / f"{name}{_SUFFIX}"
        with contextlib.suppress(OSError):
            os.replace(path, target)
        get_metrics().increment("blaeu_artifact_cache_quarantined_total")
