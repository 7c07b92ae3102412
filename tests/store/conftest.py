"""Fixtures shared by the store suites."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.dependency import GraphBuilder
from repro.store.format import ColumnZone, PartitionMeta
from repro.store.partitions import build_partitions
from repro.table.column import CategoricalColumn


def _reference_zones(table, start, stop):
    """Zone maps of rows ``[start, stop)``, from whole columns."""
    zones = {}
    for column in table.columns:
        if isinstance(column, CategoricalColumn):
            zones[column.name] = ColumnZone(
                int(np.count_nonzero(column.codes[start:stop] < 0))
            )
            continue
        missing = column.missing_mask[start:stop]
        present = column.values[start:stop][~missing]
        zones[column.name] = ColumnZone(
            int(np.count_nonzero(missing)),
            float(np.min(present)) if present.size else None,
            float(np.max(present)) if present.size else None,
        )
    return zones


def _check_zones_and_nmi(stored, table, partition_rows):
    """The two passes no selection drives, on a store and its in-memory
    twin ``table``: the zone pass (the manifest's zones, and partitions
    built afresh at ``partition_rows``) against a whole-column
    reference, and the whole-table NMI stream against the twin's."""
    for partition in stored.partitions:
        if partition.zones:
            assert partition.zones == _reference_zones(
                table, partition.start, partition.stop
            )
    n = table.n_rows
    spans = [(lo, min(lo + partition_rows, n)) for lo in range(0, n, partition_rows)]
    built = build_partitions(
        stored.root, stored.manifest.columns, n, stored.chunk_rows, partition_rows
    )
    assert built == tuple(
        PartitionMeta(lo, hi, _reference_zones(table, lo, hi)) for lo, hi in spans
    )
    # Numeric binning takes finite values only: columns holding ±inf sit out.
    binnable = [
        column.name
        for column in table.columns
        if isinstance(column, CategoricalColumn)
        or np.isfinite(column.values[~column.missing_mask]).all()
    ]
    np.testing.assert_array_equal(
        GraphBuilder().build(stored, binnable, seed=3).weights,
        GraphBuilder().build(table, binnable, seed=3).weights,
    )


@pytest.fixture(scope="session")
def check_zones_and_nmi():
    """``check(stored, table, partition_rows)``: the zone and NMI half
    of the memory-twin properties, one body for every suite that cuts a
    table into partitions and chunks."""
    return _check_zones_and_nmi
