"""A thread-safe LRU + TTL result cache shared across sessions.

Blaeu's interactivity comes from not recomputing: once one user's zoom
has paid for a CLARA/PAM run, every other session that navigates to the
same (table content, configuration, action path) triple should get the
finished map back in microseconds.  Keys are built by
:func:`repro.core.pipeline.map_cache_key` from the table's content
fingerprint, the config digest and the canonical action path — never
from session ids — which is what makes the cache safely *shared*.

Eviction is least-recently-used with an optional time-to-live; both are
enforced on every access, and an injectable clock keeps the TTL logic
deterministically testable.

:class:`TieredCache` stacks this in-memory hot tier (L1) over the
disk-backed :class:`~repro.store.artifacts.ArtifactCache` (L2), or over
nothing in a single process: reads fall through to disk and *promote*
back into memory; writes land in memory always and on disk when the
value is codec-serializable.  That is how multiple worker processes
share warm artifacts, and how a restarted worker serves its first
request warm.  Every count lives in the process-global metrics registry
alone: the tiered cache counts each lookup per tier, and the L1 counts
its evictions.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import TYPE_CHECKING, Callable, Hashable

from repro.obs.metrics import get_metrics

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.store.artifacts import ArtifactCache

__all__ = ["LRUCache", "TieredCache"]


class LRUCache:
    """A bounded mapping with LRU eviction and optional per-entry TTL.

    Parameters
    ----------
    max_size:
        Maximum number of entries; inserting beyond it evicts the least
        recently used entry.
    ttl:
        Seconds an entry stays valid after insertion; ``None`` disables
        expiry.  An expired entry is dropped on access and reads as a
        miss.
    clock:
        Monotonic time source, injectable for tests.
    """

    def __init__(
        self,
        max_size: int = 256,
        ttl: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_size < 1:
            raise ValueError("max_size must be at least 1")
        if ttl is not None and ttl <= 0:
            raise ValueError("ttl must be positive (or None to disable)")
        self._max_size = max_size
        self._ttl = ttl
        self._clock = clock
        self._entries: OrderedDict[Hashable, tuple[object, float]] = OrderedDict()
        self._lock = threading.Lock()
        # The eviction counter renders from the start, at zero.
        get_metrics().increment("blaeu_cache_evictions_total", 0)

    # ------------------------------------------------------------------
    # Mapping operations
    # ------------------------------------------------------------------

    def get(self, key: Hashable) -> object | None:
        """The cached value, or ``None`` on miss/expiry (moves to MRU)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            value, stored_at = entry
            if self._ttl is not None and self._clock() - stored_at > self._ttl:
                del self._entries[key]
                return None
            self._entries.move_to_end(key)
            return value

    def put(self, key: Hashable, value: object) -> None:
        """Insert (or refresh) an entry, evicting the LRU one if full.

        Each eviction is one ``blaeu_cache_evictions_total`` count.
        """
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = (value, self._clock())
            evict = len(self._entries) > self._max_size
            if evict:
                self._entries.popitem(last=False)
        if evict:
            get_metrics().increment("blaeu_cache_evictions_total")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return False
            if self._ttl is not None and self._clock() - entry[1] > self._ttl:
                return False
            return True


class TieredCache:
    """An L1 (memory) / L2 (disk) cache behind the ``get``/``put`` surface.

    Parameters
    ----------
    memory:
        The in-memory hot tier (an :class:`LRUCache`).
    disk:
        The shared on-disk tier (an
        :class:`~repro.store.artifacts.ArtifactCache`), or ``None`` to
        degrade to memory-only (the single-process default).

    Reads check memory first; a disk hit is *promoted* into memory so
    the per-key decode cost is paid once per process.  Writes always
    land in memory; disk persistence is best-effort — values outside
    the codec's type registry simply stay memory-only, which keeps the
    tier transparent to the pipeline.  Its counters live in the
    process-global metrics registry alone (``blaeu_cache_*`` per tier,
    ``blaeu_artifact_cache_*`` for the disk), so ``/metrics`` shows each
    tier's effectiveness per worker.
    """

    def __init__(self, memory: LRUCache, disk: "ArtifactCache | None" = None) -> None:
        self._memory = memory
        self._disk = disk

    @property
    def memory(self) -> LRUCache:
        """The L1 tier."""
        return self._memory

    @property
    def disk(self) -> "ArtifactCache | None":
        """The L2 tier (``None`` when running memory-only)."""
        return self._disk

    def get(self, key: Hashable) -> object | None:
        """L1 lookup, falling through to L2 with promotion.

        Every lookup attributes its outcome to the tier that answered:
        ``blaeu_cache_hits_total{tier="l1"|"l2"}`` (and the matching
        ``misses`` series) make prefetch effectiveness visible per
        layer, and ``blaeu_cache_promotions_total`` counts L2 → L1
        promotions.
        """
        metrics = get_metrics()
        value = self._memory.get(key)
        if value is not None:
            metrics.increment_labeled(
                "blaeu_cache_hits_total", {"tier": "l1"}
            )
            return value
        metrics.increment_labeled("blaeu_cache_misses_total", {"tier": "l1"})
        if self._disk is not None:
            value = self._disk.get(key)
            if value is not None:
                self._memory.put(key, value)
                metrics.increment_labeled(
                    "blaeu_cache_hits_total", {"tier": "l2"}
                )
                metrics.increment("blaeu_cache_promotions_total")
                metrics.increment("blaeu_artifact_cache_hits_total")
                return value
            metrics.increment_labeled(
                "blaeu_cache_misses_total", {"tier": "l2"}
            )
            metrics.increment("blaeu_artifact_cache_misses_total")
        return None

    def put(self, key: Hashable, value: object) -> None:
        """Insert into memory, and onto disk when serializable."""
        self._memory.put(key, value)
        if self._disk is None:
            return
        if self._disk.put(key, value):
            get_metrics().increment("blaeu_artifact_cache_writes_total")
        else:
            get_metrics().increment("blaeu_artifact_cache_write_skips_total")
