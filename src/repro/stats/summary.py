"""Univariate summaries of numeric values held in consecutive parts.

A highlight collects a region's present values chunk by chunk, one array
per chunk.  :func:`present_summary` reports their minimum, maximum,
mean, median and standard deviation exactly as NumPy reports them on
the concatenation of those arrays — bit for bit — without building the
concatenation, so each value is held once.

* **mean / std** — NumPy sums a contiguous ``float64`` array pairwise:
  a run of at most :data:`PAIRWISE_BLOCK` items in one unrolled loop, a
  longer one split in two at half its length rounded down to a multiple
  of 8, each half summed the same way.  :func:`pairwise_sum` follows
  that split across the parts' boundaries and hands NumPy every run that
  lies inside one part, so it adds the same numbers in the same order.
  The standard deviation is NumPy's two-pass one (squared deviations
  from the mean, summed the same way).
* **median** — an exact selection inside a bracket read off a strided
  probe: only the values in the bracket are copied and partitioned.
* A minimum or maximum that is zero (which of ``0.0`` and ``-0.0`` a
  reduction keeps depends on where each one sits), or a ``nan`` among
  the values, takes NumPy's own reductions over one contiguous copy; a
  bracket that misses the middle takes NumPy's median.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Callable, Sequence

import numpy as np

__all__ = ["PAIRWISE_BLOCK", "SELECT_MIN", "pairwise_sum", "present_summary"]

#: The longest run NumPy's pairwise summation sums without splitting.
PAIRWISE_BLOCK = 128

#: Below this many values the median is NumPy's own, on a copy that
#: costs less than a probe; from it on, the bracketed selection.
SELECT_MIN = 4096

#: Values in the strided probe a median bracket is read from (at most
#: twice this many).
_PROBE = 4096

_NAMES = ("min", "max", "mean", "median", "std")


def present_summary(parts: Sequence[np.ndarray]) -> dict[str, float]:
    """``min``/``max``/``mean``/``median``/``std`` of the ``float64``
    values in ``parts`` read in order, equal to NumPy's on their
    concatenation (every one ``nan`` when there are no values)."""
    parts = [part for part in parts if part.size]
    n = sum(part.size for part in parts)
    if n == 0:
        return dict.fromkeys(_NAMES, math.nan)
    low = np.min([part.min() for part in parts])
    high = np.max([part.max() for part in parts])
    if not (low and high) or np.isnan(low) or np.isnan(high):
        return _contiguous_summary(np.concatenate(parts))
    mean = pairwise_sum(parts) / n
    median = _bracketed_median(parts, n)
    if median is None:
        median = np.median(np.concatenate(parts))
    variance = pairwise_sum(parts, lambda run: _squared_deviations(run, mean)) / n
    return {
        "min": float(low),
        "max": float(high),
        "mean": float(mean),
        "median": float(median),
        "std": float(np.sqrt(variance)),
    }


def pairwise_sum(
    parts: Sequence[np.ndarray],
    transform: Callable[[np.ndarray], np.ndarray] | None = None,
) -> np.float64:
    """``np.add.reduce`` of the concatenation of the non-empty ``parts``
    (each run first passed through ``transform``), without building it.

    Equal bit for bit to NumPy's sum of the concatenated array: the
    recursion splits exactly where NumPy's pairwise summation does, and
    every run inside one part — or short enough to be one unrolled block
    — is summed by NumPy itself.
    """
    ends = np.cumsum([part.size for part in parts]).tolist()

    def run_sum(start: int, n: int) -> np.float64:
        index = bisect_right(ends, start)
        offset = start - (ends[index] - parts[index].size)
        if offset + n <= parts[index].size:
            run = parts[index][offset : offset + n]
        elif n <= PAIRWISE_BLOCK:
            run = _gather(parts, index, offset, n)
        else:
            half = n // 2
            half -= half % 8
            return run_sum(start, half) + run_sum(start + half, n - half)
        return np.add.reduce(run if transform is None else transform(run))

    return run_sum(0, ends[-1])


def _gather(
    parts: Sequence[np.ndarray], index: int, offset: int, n: int
) -> np.ndarray:
    """``n`` values from ``offset`` in ``parts[index]`` on, across parts."""
    pieces = []
    while n:
        piece = parts[index][offset : offset + n]
        pieces.append(piece)
        n -= piece.size
        index, offset = index + 1, 0
    return np.concatenate(pieces)


def _squared_deviations(run: np.ndarray, mean: np.float64) -> np.ndarray:
    deviations = run - mean
    return np.square(deviations, out=deviations)


def _bracketed_median(
    parts: Sequence[np.ndarray], n: int
) -> np.float64 | None:
    """``np.median`` of the values, by selection inside a bracket, or
    ``None`` where NumPy's own is needed: below :data:`SELECT_MIN`
    values, or when the bracket misses a middle rank."""
    if n < SELECT_MIN:
        return None
    stride = n // _PROBE
    probe = np.sort(np.concatenate([part[::stride] for part in parts]))
    m = probe.size
    # The ranks of the middle value(s): one for odd n, two for even n.
    first, last = (n - 1) // 2, n // 2
    margin = 2 * math.isqrt(m)
    low = probe[max(first * m // n - margin, 0)]
    high = probe[min(last * m // n + margin, m - 1)]
    below = sum(int(np.count_nonzero(part < low)) for part in parts)
    inside = np.concatenate(
        [np.compress((part >= low) & (part <= high), part) for part in parts]
    )
    if not below <= first <= last < below + inside.size:
        return None
    ranks = [first - below, last - below]
    inside.partition(ranks)
    # np.median's own last step: the mean of the middle slice.  (Its
    # sum starts from +0.0, so a zero's sign never reaches the result.)
    return np.mean(inside[ranks[: 2 - n % 2]])


def _contiguous_summary(values: np.ndarray) -> dict[str, float]:
    """NumPy's reductions on one contiguous array (the reference)."""
    return {
        "min": float(values.min()),
        "max": float(values.max()),
        "mean": float(values.mean()),
        "median": float(np.median(values)),
        "std": float(values.std()),
    }
