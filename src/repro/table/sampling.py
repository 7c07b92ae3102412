"""Sampling primitives, including Blaeu's multi-scale sampler.

"To keep the latency low, our system relies heavily on sampling.  After
each zoom, Blaeu only takes a few thousand samples from the database."
(paper, §3).  Three primitives support this:

* :func:`uniform_sample` — simple random sample without replacement, the
  stand-in for MonetDB's ``SAMPLE`` clause;
* :func:`reservoir_sample` — one-pass sampling for streams of unknown
  length (CSV ingestion of large files);
* :class:`SampleCascade` — *multi-scale* sampling: one random priority per
  row makes the samples of nested selections themselves nested, so a zoom
  refines the previous sample instead of redrawing it from scratch.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

import numpy as np

__all__ = [
    "seed_for",
    "uniform_sample",
    "reservoir_sample",
    "stratified_sample",
    "SampleCascade",
]


def seed_for(*key_parts: object) -> int:
    """The RNG seed of the computation that ``key_parts`` name.

    Every map, dependency graph and cascade draws from a generator
    seeded by its *content key* (table fingerprint, config digest,
    action path, stage inputs), never by a stream whose position depends
    on what ran before: the same request yields the same result in the
    shell, the library and the server, with or without a cache.  Parts
    are hashed by ``repr``, so they must print identically in every
    process (no object addresses).
    """
    digest = hashlib.sha256(repr(key_parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def uniform_sample(
    n_rows: int, k: int, rng: np.random.Generator
) -> np.ndarray:
    """Indices of a simple random sample of ``min(k, n_rows)`` rows.

    The result is sorted so that the sampled table preserves the source
    row order (matching MonetDB's ``SAMPLE`` output order).
    """
    if k < 0:
        raise ValueError(f"sample size must be non-negative, got {k}")
    if n_rows < 0:
        raise ValueError(f"population size must be non-negative, got {n_rows}")
    if k >= n_rows:
        return np.arange(n_rows, dtype=np.intp)
    chosen = rng.choice(n_rows, size=k, replace=False)
    chosen.sort()
    return chosen.astype(np.intp)


def reservoir_sample(
    stream: Iterable[object], k: int, rng: np.random.Generator
) -> list[object]:
    """Algorithm R: a uniform sample of ``k`` items from a one-pass stream.

    Every length-``k`` subset of the stream is equally likely, regardless
    of the (unknown) stream length.
    """
    if k < 0:
        raise ValueError(f"sample size must be non-negative, got {k}")
    reservoir: list[object] = []
    for seen, item in enumerate(stream):
        if seen < k:
            reservoir.append(item)
            continue
        slot = int(rng.integers(0, seen + 1))
        if slot < k:
            reservoir[slot] = item
    return reservoir


def stratified_sample(
    labels: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """Indices of a sample of ``k`` rows balanced across label strata.

    Each distinct label receives ``k / n_strata`` slots (rounded), capped
    at the stratum size; leftover slots are redistributed to the largest
    remaining strata.  Used when highlighting small clusters: a uniform
    sample might miss them entirely.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError("labels must be one-dimensional")
    n_rows = labels.shape[0]
    if k >= n_rows:
        return np.arange(n_rows, dtype=np.intp)

    strata = [np.flatnonzero(labels == value) for value in np.unique(labels)]
    strata.sort(key=len)
    chosen: list[np.ndarray] = []
    remaining_slots = k
    remaining_strata = len(strata)
    for stratum in strata:
        quota = remaining_slots // remaining_strata
        take = min(quota, stratum.size)
        if take:
            picked = rng.choice(stratum, size=take, replace=False)
            chosen.append(picked)
        remaining_slots -= take
        remaining_strata -= 1
    out = np.concatenate(chosen) if chosen else np.empty(0, dtype=np.intp)
    out.sort()
    return out.astype(np.intp)


class SampleCascade:
    """Multi-scale sampling over nested selections.

    Assigns each of the ``n_rows`` base rows a random priority once.  The
    sample of any selection is its ``k`` lowest-priority rows.  Because
    priorities are fixed, the sample of a sub-selection is exactly the
    surviving part of the parent's sample plus the next-lowest priorities —
    zooming *refines* the sample rather than redrawing it.  This is the
    property the paper's "multi-scale sampling" needs: consecutive maps
    stay visually stable across zooms.

    The same construction is known as bottom-k sampling; it is uniform for
    any fixed selection.
    """

    def __init__(self, n_rows: int, rng: np.random.Generator) -> None:
        if n_rows < 0:
            raise ValueError(f"n_rows must be non-negative, got {n_rows}")
        self._n_rows = n_rows
        self._priority = rng.permutation(n_rows).astype(np.int64)

    @classmethod
    def from_priorities(cls, priorities: np.ndarray) -> "SampleCascade":
        """A cascade over pre-assigned per-row priorities.

        This is how *persisted* multi-scale sampling works: a store-backed
        table (:mod:`repro.store`) carries its priority column on disk, so
        the cascade — and therefore every nested sample — is identical in
        every process that opens the store, with no O(n) permutation draw
        at registration time.  ``priorities`` may be any integer array
        (including a read-only memory map); values must be distinct, or
        ties can inflate a sample past ``k``.
        """
        priorities = np.asarray(priorities, dtype=np.int64)
        if priorities.ndim != 1:
            raise ValueError("priorities must be one-dimensional")
        cascade = cls.__new__(cls)
        cascade._n_rows = int(priorities.shape[0])
        cascade._priority = priorities
        return cascade

    @property
    def n_rows(self) -> int:
        """Size of the base population."""
        return self._n_rows

    def sample(self, k: int, selection: np.ndarray | None = None) -> np.ndarray:
        """Row indices of the ``k`` lowest-priority rows inside ``selection``.

        ``selection`` is either ``None`` (whole population), a boolean mask
        over the base rows, or an array of base-row indices.  The result is
        sorted in base-row order.
        """
        if k < 0:
            raise ValueError(f"sample size must be non-negative, got {k}")
        if k == 0:
            return np.empty(0, dtype=np.intp)
        candidates = self._resolve(selection)
        if k >= candidates.size:
            return np.sort(candidates)
        priorities = self._priority[candidates]
        threshold = np.partition(priorities, k - 1)[k - 1]
        chosen = candidates[priorities <= threshold]
        return np.sort(chosen)

    def is_nested(self, k_small: int, k_large: int, selection=None) -> bool:
        """Whether the ``k_small`` sample is contained in the ``k_large`` one."""
        small = set(self.sample(k_small, selection).tolist())
        large = set(self.sample(k_large, selection).tolist())
        return small.issubset(large)

    def _resolve(self, selection: np.ndarray | None) -> np.ndarray:
        if selection is None:
            return np.arange(self._n_rows, dtype=np.intp)
        selection = np.asarray(selection)
        if selection.dtype == bool:
            if selection.shape[0] != self._n_rows:
                raise ValueError(
                    f"selection mask length {selection.shape[0]} != "
                    f"population {self._n_rows}"
                )
            return np.flatnonzero(selection)
        indices = selection.astype(np.intp)
        if indices.size and (
            indices.min() < 0 or indices.max() >= self._n_rows
        ):
            raise IndexError("selection indices out of range")
        if np.unique(indices).size != indices.size:
            raise ValueError("selection indices must be distinct")
        return indices
