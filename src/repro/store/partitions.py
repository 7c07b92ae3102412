"""Zone-map pruning and partition (re)construction for store scans.

The pruning test is *conservative proof of emptiness*: a partition is
skipped only when its zone maps prove that **no row** in it can satisfy
the predicate — numeric ranges that cannot intersect a comparison,
all-null partitions under value predicates, null-free partitions under
``IS NULL``.  Anything the zones cannot decide (categorical labels,
negations, unknown predicate types, zone-less implicit partitions)
scans normally, so pruned results are bit-identical to full scans by
construction.

:func:`build_partitions` derives fresh partitions — ranges plus zone
maps — from the column files themselves, one bounded chunked read per
range.  It backs both ``blaeu store repartition`` (adding zone maps to
a pre-partitioning store without touching data files) and the ingest
finalizer.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from repro.resilience.deadline import checkpoint
from repro.store.format import (
    CODES_DTYPE,
    KIND_NUMERIC,
    MASK_DTYPE,
    VALUES_DTYPE,
    ChunkReader,
    ColumnMeta,
    ColumnZone,
    PartitionMeta,
    StoreManifest,
    partition_spans,
)
from repro.table.predicates import (
    And,
    Between,
    Comparison,
    Everything,
    In,
    IsMissing,
    Not,
    Or,
    Predicate,
)

__all__ = [
    "build_partitions",
    "repartition",
    "zone_proves_empty",
]


def zone_proves_empty(
    predicate: Predicate,
    partition: PartitionMeta,
    kinds: Mapping[str, str],
) -> bool:
    """Whether the partition's zones prove ``predicate`` matches no row.

    ``kinds`` maps column names to their manifest kind strings.  Any
    column without a zone entry — and any predicate shape the zones
    cannot reason about — returns ``False``, keeping the test safe on
    implicit (pre-partitioning) partitions and future predicate types.
    """
    if isinstance(predicate, And):
        return any(
            zone_proves_empty(operand, partition, kinds)
            for operand in predicate.operands
        )
    if isinstance(predicate, Or):
        operands = predicate.operands
        return bool(operands) and all(
            zone_proves_empty(operand, partition, kinds)
            for operand in operands
        )
    if isinstance(predicate, Not) or isinstance(predicate, Everything):
        return False
    if isinstance(predicate, IsMissing):
        zone = partition.zones.get(predicate.column)
        return zone is not None and zone.null_count == 0
    if isinstance(predicate, (Comparison, Between, In)):
        zone = partition.zones.get(predicate.column)
        if zone is None:
            return False
        # Value predicates never match missing cells (their masks AND
        # with the present mask), so an all-null partition is empty for
        # every one of them — including categorical membership tests.
        if zone.null_count >= partition.rows:
            return True
        if isinstance(predicate, In):
            return False  # codes carry no order: labels cannot be ranged
        if kinds.get(predicate.column) != KIND_NUMERIC:
            return False
        if zone.min is None or zone.max is None:
            return True  # numeric with zero present values
        if isinstance(predicate, Between):
            return zone.max < predicate.low or zone.min >= predicate.high
        if isinstance(predicate.value, str):
            return False
        value = float(predicate.value)
        low, high = zone.min, zone.max
        if predicate.op == "<":
            return low >= value
        if predicate.op == "<=":
            return low > value
        if predicate.op == ">":
            return high <= value
        if predicate.op == ">=":
            return high < value
        if predicate.op == "==":
            return value < low or value > high
        if predicate.op == "!=":
            return low == high == value
        return False
    return False


def compute_zones(
    root: Path,
    columns: Sequence[ColumnMeta],
    start: int,
    stop: int,
    chunk_rows: int,
) -> dict[str, ColumnZone]:
    """Zone maps of rows ``[start, stop)``, by bounded chunked reads."""
    zones: dict[str, ColumnZone] = {}
    with ChunkReader(root) as reader:
        for meta in columns:
            null_count = 0
            minimum: float | None = None
            maximum: float | None = None
            for lo in range(start, stop, chunk_rows):
                checkpoint("store.zones")
                hi = min(lo + chunk_rows, stop)
                if meta.kind == KIND_NUMERIC:
                    values = reader.read(meta.files["values"], VALUES_DTYPE, lo, hi)
                    mask = reader.read(meta.files["mask"], MASK_DTYPE, lo, hi)
                    missing = int(np.count_nonzero(mask))
                    null_count += missing
                    # A null-free chunk is its own present values: no copy.
                    present = values[~mask] if missing else values
                    if present.size:
                        lo_value = float(present.min())
                        hi_value = float(present.max())
                        minimum = (
                            lo_value if minimum is None else min(minimum, lo_value)
                        )
                        maximum = (
                            hi_value if maximum is None else max(maximum, hi_value)
                        )
                else:
                    codes = reader.read(meta.files["codes"], CODES_DTYPE, lo, hi)
                    null_count += int(np.count_nonzero(codes < 0))
            zones[meta.name] = ColumnZone(
                null_count=null_count, min=minimum, max=maximum
            )
    return zones


def build_partitions(
    root: str | Path,
    columns: Sequence[ColumnMeta],
    n_rows: int,
    chunk_rows: int,
    partition_rows: int,
    start: int = 0,
) -> tuple[PartitionMeta, ...]:
    """Partitions (ranges + zone maps) of rows ``[start, n_rows)``: one
    zone pass per range over the column files, in range order."""
    root = Path(root)
    partitions = []
    for lo, hi in partition_spans(n_rows, partition_rows, start=start):
        checkpoint("store.partition")
        zones = compute_zones(root, columns, lo, hi, chunk_rows)
        partitions.append(PartitionMeta(start=lo, stop=hi, zones=zones))
    return tuple(partitions)


def repartition(
    root: str | Path,
    partition_rows: int | None = None,
) -> StoreManifest:
    """Rewrite a store's partitions (manifest only; data files untouched).

    Adds zone maps to a pre-partitioning store, or changes the range
    size of an already-partitioned one.  ``partition_rows=None`` keeps
    the current granularity (the format default for stores without
    partitions).
    """
    from repro.store.format import DEFAULT_PARTITION_ROWS
    import dataclasses

    root = Path(root)
    manifest = StoreManifest.load(root)
    if partition_rows is None:
        current = manifest.partitions
        partition_rows = (
            max(partition.rows for partition in current)
            if current
            else DEFAULT_PARTITION_ROWS
        )
    partitions = build_partitions(
        root,
        manifest.columns,
        manifest.n_rows,
        manifest.chunk_rows,
        partition_rows,
    )
    manifest = dataclasses.replace(manifest, partitions=partitions)
    manifest.save(root)
    return manifest
