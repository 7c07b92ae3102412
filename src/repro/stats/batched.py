"""Batched all-pairs NMI via fused-code contingency counting.

A scalar estimator walks an O(m²) Python pair loop, paying several
full-column passes per pair.  This module
computes the same normalized-mutual-information weights as a *batched
kernel* built on one trick: the joint distribution of two code vectors
``(x, y)`` with cardinalities ``(n_x, n_y)`` is a single ``bincount`` of
the **fused code** ``(x+1) · (n_y+1) + (y+1)``.  The ``+1`` shift gives
missing cells (code ``-1``) their own row 0 / column 0 in each pair's
``(n_x+1) × (n_y+1)`` contingency table, so no masking pass is needed:
the joint counts over *pairwise-complete* rows are the ``[1:, 1:]``
submatrix, and both complete-row marginals are its row and column sums.

One left column is fused against a whole block of right columns of equal
cardinality at once — each pair shifted into its own disjoint code range
— so the entire block's contingency tables come from **one** bincount,
reshape to a dense ``(pairs, n_x+1, n_y+1)`` array, and every entropy in
the block is evaluated with vectorized reductions
(:func:`repro.stats.entropy.entropies_from_sums`) — no per-pair Python.

Two entry points, both over :class:`ColumnCodes` (every column
factorized once into a dense int32 code matrix, missing = ``-1``):

* :func:`pairwise_nmi_matrix` — the in-memory kernel, one serial loop
  over left columns with a deadline checkpoint before each;
* :class:`StreamingPairwiseNMI` — the out-of-core twin: the same fused
  contingencies accumulated chunk by chunk, so a store-backed table's
  graph never materializes full columns.

All weights agree with the scalar reference (the one-pair plug-in
estimator the tests hold as their oracle) to ``atol 1e-12``
on identical codes; the only divergence source is the
``ln N − (Σ c·ln c)/N`` entropy form, which differs from the scalar
``−Σ p·ln p`` by a few ulp.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.resilience.deadline import checkpoint
from repro.stats.entropy import c_log_c, entropies_from_sums

__all__ = [
    "ColumnCodes",
    "pairwise_nmi_matrix",
    "StreamingPairwiseNMI",
]

#: Below this many pairwise-complete rows an NMI estimate is unreliable
#: and reported as 0 (no evidence of dependency).
MIN_COMPLETE_ROWS = 8

#: Upper bound on fused-array elements per block.
_FUSED_BUDGET = 1 << 21

#: Upper bound on contingency cells per block.
_CELL_BUDGET = 1 << 22

#: Refuse streaming accumulation past this many total contingency cells;
#: at that point a sampled build is the right tool.
_STREAM_CELL_BUDGET = 1 << 26


@dataclass(frozen=True)
class ColumnCodes:
    """A table factorized into aligned integer code vectors.

    Attributes
    ----------
    names:
        Column names, one per matrix row.
    codes:
        ``(n_columns, n_rows)`` int32 matrix; missing cells are ``-1``.
    n_codes:
        Per-column code cardinality (codes lie in ``[0, n_codes)``).
        The kernel's weights do not depend on slack in the cardinality —
        unused codes contribute empty contingency cells — so any upper
        bound is valid.
    """

    names: tuple[str, ...]
    codes: np.ndarray
    n_codes: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.codes.ndim != 2:
            raise ValueError("codes must be a (columns, rows) matrix")
        if self.codes.shape[0] != len(self.names):
            raise ValueError(
                f"{len(self.names)} names for {self.codes.shape[0]} code rows"
            )
        if len(self.n_codes) != len(self.names):
            raise ValueError("n_codes must have one entry per column")

    @property
    def n_columns(self) -> int:
        """Number of encoded columns."""
        return self.codes.shape[0]

    @property
    def n_rows(self) -> int:
        """Number of encoded rows."""
        return self.codes.shape[1]

    def gather(self, indices: np.ndarray) -> "ColumnCodes":
        """The same columns restricted to ``indices`` (in order).

        This is the navigation hot path: a zoomed selection's codes are
        a row gather of the base table's cached codes — no
        re-discretization.
        """
        indices = np.asarray(indices, dtype=np.intp)
        return ColumnCodes(
            names=self.names,
            codes=self.codes[:, indices],
            n_codes=self.n_codes,
        )


def pairwise_nmi_matrix(codes: ColumnCodes) -> np.ndarray:
    """The symmetric all-pairs NMI matrix of an encoded table.

    Unit diagonal; pairs with fewer than :data:`MIN_COMPLETE_ROWS`
    complete rows (or a constant/empty side) get weight 0, matching the scalar
    reference.  An expired deadline aborts between left columns
    (``graph.nmi.row``), never mid-kernel.
    """
    m = codes.n_columns
    weights = np.eye(m, dtype=np.float64)
    if m < 2:
        return weights
    # The +1 shift: missing becomes 0, real codes become 1..n_codes.
    shifted = (codes.codes + 1).astype(np.int64)
    cards = np.asarray(codes.n_codes, dtype=np.int64)

    for i in range(m - 1):
        checkpoint("graph.nmi.row")
        row = _left_row_weights(i, shifted, cards)
        weights[i, i + 1 :] = row
        weights[i + 1 :, i] = row
    return weights


class StreamingPairwiseNMI:
    """Chunked accumulation of the all-pairs fused contingencies.

    The out-of-core twin of :func:`pairwise_nmi_matrix`: feed row chunks
    of the code matrix (store scans produce them one pushdown read at a
    time) through :meth:`update`, then :meth:`finalize` evaluates every
    pair's entropies from the accumulated counts.  Because each pair's
    accumulated table carries the missing row/column explicitly, the
    result equals the in-memory kernel on the concatenation of the
    chunks — complete-row restriction happens once, at finalize.
    """

    def __init__(self, names: Sequence[str], n_codes: Sequence[int]) -> None:
        self._names = tuple(names)
        self._cards = np.asarray(n_codes, dtype=np.int64)
        m = len(self._names)
        if len(self._cards) != m:
            raise ValueError("n_codes must have one entry per name")
        self._m = m
        self._groups = [
            _right_groups(i, self._cards) for i in range(max(m - 1, 0))
        ]
        total = sum(
            int(group.total_cells)
            for groups in self._groups
            for group in groups
        )
        if total > _STREAM_CELL_BUDGET:
            raise ValueError(
                "streaming dependency accumulation would need "
                f"{total} contingency cells (cap {_STREAM_CELL_BUDGET}); "
                "build from a row sample instead"
            )
        self._counts = [
            [np.zeros(group.total_cells, dtype=np.int64) for group in groups]
            for groups in self._groups
        ]

    def update(self, chunk: np.ndarray) -> None:
        """Accumulate one ``(n_columns, chunk_rows)`` int32 code chunk."""
        chunk = np.asarray(chunk)
        if chunk.ndim != 2 or chunk.shape[0] != self._m:
            raise ValueError(
                f"chunk must be ({self._m}, rows); got {chunk.shape}"
            )
        shifted = (chunk + 1).astype(np.int64)
        for i in range(self._m - 1):
            x1 = shifted[i]
            for group, counts in zip(self._groups[i], self._counts[i]):
                for start, stop in _blocks(
                    group.n_pairs, chunk.shape[1], group.base
                ):
                    lo = start * group.base
                    hi = stop * group.base
                    counts[lo:hi] += _fused_counts(
                        x1, shifted, group, start, stop
                    )

    def finalize(self) -> np.ndarray:
        """The NMI matrix of all rows fed through :meth:`update`."""
        weights = np.eye(self._m, dtype=np.float64)
        for i in range(self._m - 1):
            row = np.zeros(self._m - i - 1, dtype=np.float64)
            for group, counts in zip(self._groups[i], self._counts[i]):
                values = _group_weights(
                    counts, group.n_pairs, group.n_i, group.n_j
                )
                row[group.positions] = values
            weights[i, i + 1 :] = row
            weights[i + 1 :, i] = row
        return weights


# ----------------------------------------------------------------------
# Kernel internals
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _RightGroup:
    """The right columns of one left column that share a cardinality.

    Grouping by cardinality makes every contingency table in the group
    the same shape, so one flat bincount reshapes to a dense
    ``(n_pairs, n_i+1, n_j+1)`` array and all per-pair statistics become
    axis reductions.
    """

    n_i: int
    n_j: int
    columns: np.ndarray  #: absolute column indices of the rights
    positions: np.ndarray  #: their offsets within the left's output row

    @property
    def n_pairs(self) -> int:
        return int(self.columns.shape[0])

    @property
    def base(self) -> int:
        """Fused-code range (= contingency cells) per pair."""
        return (self.n_i + 1) * (self.n_j + 1)

    @property
    def total_cells(self) -> int:
        return self.n_pairs * self.base


def _right_groups(i: int, cards: np.ndarray) -> list[_RightGroup]:
    """Group the rights of left column ``i`` by their cardinality."""
    rights = cards[i + 1 :]
    out: list[_RightGroup] = []
    for value in np.unique(rights):
        positions = np.flatnonzero(rights == value)
        out.append(
            _RightGroup(
                n_i=int(cards[i]),
                n_j=int(value),
                columns=positions + i + 1,
                positions=positions,
            )
        )
    return out


def _blocks(n_pairs: int, n_rows: int, base: int) -> Iterator[tuple[int, int]]:
    """Split a group's pairs into blocks bounded by both budgets."""
    if n_pairs <= 0:
        return
    per_block = max(1, _FUSED_BUDGET // max(n_rows, 1))
    per_block = min(per_block, max(1, _CELL_BUDGET // max(base, 1)))
    start = 0
    while start < n_pairs:
        stop = min(start + per_block, n_pairs)
        yield start, stop
        start = stop


def _fused_counts(
    x1: np.ndarray,
    shifted: np.ndarray,
    group: _RightGroup,
    start: int,
    stop: int,
) -> np.ndarray:
    """One bincount covering pairs ``start:stop`` of a right group.

    Fuses the shifted left codes against every right column in the
    block — each pair offset into its own ``base``-sized code range —
    and counts the lot at once.  The result is the blocks' contingency
    tables, flat, in pair order.
    """
    stride = group.n_j + 1
    y1 = shifted[group.columns[start:stop]]
    fused = x1 * stride + y1
    fused += (np.arange(stop - start, dtype=np.int64) * group.base)[:, None]
    return np.bincount(
        fused.ravel(), minlength=(stop - start) * group.base
    )


def _group_weights(
    counts: np.ndarray,
    n_pairs: int,
    n_i: int,
    n_j: int,
) -> np.ndarray:
    """Per-pair NMI from a group's flat contingency counts.

    Reshapes to ``(n_pairs, n_i+1, n_j+1)``; the ``[:, 1:, 1:]``
    submatrix holds the pairwise-complete joint counts, whose axis sums
    are exactly the complete-row marginal counts the scalar reference
    bincounts — so all three entropies per pair come from three
    vectorized reductions.
    """
    table = counts.reshape(n_pairs, n_i + 1, n_j + 1)
    joint = table[:, 1:, 1:]
    x_counts = joint.sum(axis=2)
    y_counts = joint.sum(axis=1)
    totals = x_counts.sum(axis=1)
    h_joint = entropies_from_sums(totals, c_log_c(joint).sum(axis=(1, 2)))
    h_x = entropies_from_sums(totals, c_log_c(x_counts).sum(axis=1))
    h_y = entropies_from_sums(totals, c_log_c(y_counts).sum(axis=1))
    with np.errstate(divide="ignore", invalid="ignore"):
        mi = np.maximum(h_x + h_y - h_joint, 0.0)
        value = mi / np.sqrt(h_x * h_y)
    ok = (h_x > 0.0) & (h_y > 0.0) & (totals >= MIN_COMPLETE_ROWS)
    return np.clip(np.where(ok, value, 0.0), 0.0, 1.0)


def _left_row_weights(
    i: int, shifted: np.ndarray, cards: np.ndarray
) -> np.ndarray:
    """Weights of column ``i`` against every column ``j > i``."""
    out = np.zeros(shifted.shape[0] - i - 1, dtype=np.float64)
    x1 = shifted[i]
    n = shifted.shape[1]
    for group in _right_groups(i, cards):
        values = np.empty(group.n_pairs, dtype=np.float64)
        for start, stop in _blocks(group.n_pairs, n, group.base):
            counts = _fused_counts(x1, shifted, group, start, stop)
            values[start:stop] = _group_weights(
                counts, stop - start, group.n_i, group.n_j
            )
        out[group.positions] = values
    return out
