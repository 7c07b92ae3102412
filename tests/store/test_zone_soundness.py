"""Zone maps are sound: a partition they prove empty holds no match.

``zone_proves_empty`` lets a scan skip a partition's IO.  A proof that
is wrong skips rows that match — a silent wrong count — so the law is
checked over generated tables and predicates on every layout that
writes zones: a table written as a store, a fresh CSV ingest, an
append (zones of the appended range built separately) and a
repartition.  The tables carry missing, constant, all-missing, ±inf and
signed-zero cells (CSV text writes ``-0.0`` as ``0``, so signed zeros
reach the zones through the written store); partition and chunk sizes
do not divide the row count.  The truth is the predicate's own
mask over the rows the store holds, read back without any pruning.
"""

import io
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.store import StoredTable, write_store
from repro.store.ingest import append_csv, ingest_csv
from repro.store.partitions import repartition, zone_proves_empty
from repro.table.column import CategoricalColumn, ColumnKind, NumericColumn
from repro.table.csv_io import write_csv
from repro.table.predicates import (
    And,
    Between,
    Comparison,
    In,
    IsMissing,
    Not,
    Or,
)
from repro.table.table import Table

#: Few distinct values, so predicates land on zone bounds often.
POOL = (-np.inf, -1.0, -0.0, 0.0, 1.0, np.inf)
LABELS = ("a", "b", "c")
NUMERIC = ("v", "k", "z")
OPS = ("<", "<=", ">", ">=", "==", "!=")
#: An all-missing CSV column would read back categorical.
KINDS = {name: ColumnKind.NUMERIC for name in NUMERIC}


@st.composite
def tables(draw) -> Table:
    n = draw(st.integers(1, 90))
    cells = st.sampled_from(POOL + (np.nan,))
    constant = draw(st.sampled_from(POOL))
    constant_holes = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    labels = st.sampled_from(LABELS + (None,))
    return Table(
        "zones",
        [
            NumericColumn("v", draw(st.lists(cells, min_size=n, max_size=n))),
            NumericColumn(
                "k", [np.nan if hole else constant for hole in constant_holes]
            ),
            NumericColumn("z", [np.nan] * n),
            CategoricalColumn.from_labels(
                "c", draw(st.lists(labels, min_size=n, max_size=n))
            ),
        ],
    )


def _leaves():
    value = st.sampled_from(POOL)
    numeric = st.sampled_from(NUMERIC)
    label = st.sampled_from(LABELS + ("never",))
    return st.one_of(
        st.builds(Comparison, numeric, st.sampled_from(OPS), value),
        st.builds(
            lambda column, bounds: Between(column, *sorted(bounds)),
            numeric,
            st.tuples(value, value),
        ),
        st.builds(Comparison, st.just("c"), st.sampled_from(("==", "!=")), label),
        st.builds(In, st.just("c"), st.lists(label)),
        st.builds(IsMissing, st.sampled_from(NUMERIC + ("c",))),
    )


def _connectives(inner):
    operands = st.lists(inner, min_size=1, max_size=3).map(tuple)
    return st.one_of(
        st.builds(And, operands), st.builds(Or, operands), st.builds(Not, inner)
    )


conditions = st.lists(
    st.recursive(_leaves(), _connectives, max_leaves=5), min_size=1, max_size=6
)

#: Sizes that divide no row count the tables draw evenly, mostly.
partition_rows = st.sampled_from([3, 7, 13, 32])
chunk_rows = st.sampled_from([2, 5, 11, 64])


def _csv(table: Table) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        write_csv(table, path)
        return path.read_bytes().decode("utf-8")


def _ingest(text: str, root: Path, chunk: int, rows: int) -> None:
    ingest_csv(
        io.StringIO(text),
        root,
        chunk_rows=chunk,
        partition_rows=rows,
        kinds=KINDS,
    )


def _subterms(predicate):
    """``predicate`` and, recursively, every predicate inside it."""
    yield predicate
    for inner in getattr(predicate, "operands", ()):
        yield from _subterms(inner)
    if isinstance(predicate, Not):
        yield from _subterms(predicate.operand)


def _assert_sound(root: Path, predicates) -> None:
    """No partition of the store at ``root`` is proven empty for a
    predicate — or any predicate inside one — that matches one of its
    rows."""
    stored = StoredTable(root)
    kinds = {meta.name: meta.kind for meta in stored.manifest.columns}
    rows = stored.take(np.arange(stored.n_rows))
    for predicate in (term for tree in predicates for term in _subterms(tree)):
        truth = np.asarray(predicate.mask(rows), dtype=bool)
        for partition in stored.partitions:
            assert partition.zones, "a zoned layout lost its zones"
            if zone_proves_empty(predicate, partition, kinds):
                matched = truth[partition.start : partition.stop]
                assert not matched.any(), (predicate, partition)


_settings = settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@_settings
@given(tables(), conditions, partition_rows, chunk_rows)
def test_a_written_store_never_prunes_a_match(table, predicates, rows, chunk):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "s"
        write_store(table, root, chunk_rows=chunk, partition_rows=rows)
        _assert_sound(root, predicates)


@_settings
@given(tables(), conditions, partition_rows, chunk_rows)
def test_a_fresh_ingest_never_prunes_a_match(table, predicates, rows, chunk):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "s"
        _ingest(_csv(table), root, chunk, rows)
        _assert_sound(root, predicates)


@_settings
@given(tables(), conditions, partition_rows, chunk_rows, st.data())
def test_an_append_never_prunes_a_match(table, predicates, rows, chunk, data):
    head = data.draw(st.integers(1, table.n_rows))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "s"
        text = _csv(table).splitlines(keepends=True)
        _ingest("".join(text[: head + 1]), root, chunk, rows)
        append_csv(io.StringIO("".join(text[:1] + text[head + 1 :])), root)
        _assert_sound(root, predicates)


@_settings
@given(tables(), conditions, partition_rows, partition_rows, chunk_rows)
def test_a_repartition_never_prunes_a_match(table, predicates, first, second, chunk):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "s"
        _ingest(_csv(table), root, chunk, first)
        repartition(root, second)
        _assert_sound(root, predicates)
