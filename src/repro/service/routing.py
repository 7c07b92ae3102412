"""Consistent-hash routing of table fingerprints to worker slots.

The multi-worker supervisor keeps each worker's in-memory hot tier
effective by always sending work on the same table *content* to the
same worker slot: the L1 cache then concentrates that table's maps and
stage artifacts in one process instead of diluting them across all of
them.  Keys are content fingerprints (not names), the same identity
the cache tiers use — two names bound to identical data route
together, exactly like they share cache entries.

A classic hash ring with virtual nodes keeps the mapping stable across
fleet sizes: a ring without one of N slots places only that slot's ~1/N
of the keyspace elsewhere.  Slots are small integers (worker *slots*,
not processes — a restarted worker reoccupies its slot and, thanks to
the disk artifact tier, rewarms from what its predecessor persisted).
"""

from __future__ import annotations

import bisect
import hashlib

__all__ = ["HashRing"]

#: Virtual nodes per slot; more replicas = smoother key spread.
REPLICAS = 64


def _point(token: str) -> int:
    """A uniform 64-bit ring position for a token."""
    digest = hashlib.sha256(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class HashRing:
    """A consistent-hash ring over integer worker slots.

    Parameters
    ----------
    slots:
        The worker slot ids (e.g. ``range(n_workers)``), each placed at
        :data:`REPLICAS` virtual nodes.
    """

    def __init__(self, slots: range | list[int]) -> None:
        self._points: list[int] = []
        self._owners: dict[int, int] = {}
        self._slots: set[int] = set()
        for slot in slots:
            self.add(slot)

    def add(self, slot: int) -> None:
        """Add a slot (idempotent)."""
        if slot in self._slots:
            return
        self._slots.add(slot)
        for replica in range(REPLICAS):
            point = _point(f"slot:{slot}:{replica}")
            index = bisect.bisect_left(self._points, point)
            self._points.insert(index, point)
            self._owners[point] = slot

    def owner(self, key: str) -> int:
        """The slot owning ``key`` (clockwise successor on the ring)."""
        return self.owners(key, 1)[0]

    def owners(self, key: str, count: int) -> list[int]:
        """Up to ``count`` distinct slots for ``key``, preference order.

        The first entry is the owner; the rest are the clockwise
        successors — the failover targets a proxy tries when the owner
        is down.  Walking the ring (instead of re-hashing) keeps the
        fallback assignment as stable as the primary one.
        """
        if not self._points:
            raise LookupError("hash ring has no slots")
        point = _point(f"key:{key}")
        index = bisect.bisect_right(self._points, point)
        preference: list[int] = []
        for step in range(len(self._points)):
            slot = self._owners[self._points[(index + step) % len(self._points)]]
            if slot not in preference:
                preference.append(slot)
                if len(preference) >= count:
                    break
        return preference

    def __len__(self) -> int:
        return len(self._slots)

    def __contains__(self, slot: object) -> bool:
        return slot in self._slots
