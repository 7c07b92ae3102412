"""The one sampling law: a content-keyed uniform sample.

"To keep the latency low, our system relies heavily on sampling.  After
each zoom, Blaeu only takes a few thousand samples from the database."
(paper, §3).  Every map's Sample stage draws that sample here:

* :func:`seed_for` — the seed of a computation, a hash of its content
  key, so the same request draws the same sample in every process;
* :func:`uniform_sample` — simple random sample without replacement, the
  stand-in for MonetDB's ``SAMPLE`` clause.

A zoom redraws its sample from its own key; it does not refine its
parent's.  (A store still persists a priority column, read only by
:meth:`~repro.store.stored.StoredTable.top_k_sample`.)
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["seed_for", "uniform_sample"]


def seed_for(*key_parts: object) -> int:
    """The RNG seed of the computation that ``key_parts`` name.

    Every map and dependency graph draws from a generator seeded by its
    *content key* (table fingerprint, config digest, action path, stage
    inputs), never by a stream whose position depends on what ran
    before: the same request yields the same result in the shell, the
    library and the server, with or without a cache.  Parts are hashed
    by ``repr``, so they must print identically in every process (no
    object addresses).
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
