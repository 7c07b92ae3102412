"""Batched Shannon entropy over contingency segments.

Plug-in (maximum likelihood) entropies in **nats**, computed from
contingency counts many segments at a time.  They are the building
blocks of the mutual-information measure that weights Blaeu's
dependency graph (:mod:`repro.stats.batched`).
"""

from __future__ import annotations

import numpy as np

__all__ = ["c_log_c", "entropies_from_sums"]


def c_log_c(counts: np.ndarray) -> np.ndarray:
    """Elementwise ``c · ln(c)`` with the ``0 · ln(0) = 0`` convention.

    The building block of the *batched* entropy path
    (:mod:`repro.stats.batched`): summing these per contingency segment
    and applying :func:`entropies_from_sums` evaluates thousands of
    plug-in entropies without a Python loop.
    """
    counts = np.asarray(counts, dtype=np.float64)
    return counts * np.log(np.maximum(counts, 1.0))


def entropies_from_sums(
    totals: np.ndarray, c_log_c_sums: np.ndarray
) -> np.ndarray:
    """Plug-in entropies (nats) from segment totals and ``Σ c·ln(c)`` sums.

    Uses the identity ``H = ln(N) − (Σ c·ln c) / N`` (with ``H = 0`` for
    empty segments), which agrees with the ``−Σ p·ln p`` form to a
    few ulp — the batched kernel's tolerance contract is ``atol 1e-12``
    against the scalar estimators, not bit-equality.

    Values below 1e-12 nats are reported as exactly 0: a constant
    segment's true entropy is 0, but the identity leaves ~1 ulp of
    rounding residue, while the smallest *genuine* nonzero plug-in
    entropy, ``≈ ln(N)/N``, stays above 1e-12 for any N below ~10¹³ —
    so the cutoff only ever snaps degenerate segments, keeping the
    downstream ``H > 0`` guards as sharp as the scalar path's.
    """
    totals = np.asarray(totals, dtype=np.float64)
    sums = np.asarray(c_log_c_sums, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        entropies = np.log(totals) - sums / totals
    return np.where(
        (totals > 0) & (entropies > 1e-12), entropies, 0.0
    )
