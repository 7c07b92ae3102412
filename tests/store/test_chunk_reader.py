"""A chunk pass moves each byte once — and changes no result.

One differential property for the passes of a navigation action
(predicate scan, exact node counts, highlight, whole-table NMI) and the
zone pass, against the in-memory twin and a whole-column reference,
over the layouts that decide *which files a chunk reads*: zoned,
zone-less legacy and appended manifests, null-free and nullable numeric
columns side by side.  Then what reusing buffers makes mandatory:
nothing outlives its chunk, a truncated file is a typed error, no
descriptor leaks; and the budgets: which files a scan opens, how many
buffers it holds, how often a dictionary is validated.
"""

import dataclasses
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.store.format as store_format
from repro.core.config import BlaeuConfig
from repro.core.datamap import DataMap, Region
from repro.core.navigation import ExplorationState, Explorer
from repro.core.pipeline import _node_counts
from repro.resilience.deadline import DeadlineExceeded, deadline_scope
from repro.resilience.faults import InjectedFault, install_faults, parse_faults
from repro.store import StoredTable, write_store
from repro.store.format import ChunkReader, StoreManifest, StoreReadError
from repro.store.ingest import append_csv
from repro.table.column import CategoricalColumn, NumericColumn
from repro.table.csv_io import write_csv
from repro.table.predicates import (
    And,
    Comparison,
    Everything,
    In,
    IsMissing,
    Or,
)
from repro.table.table import Table
from repro.tree.cart import CartParams, count_reaching, fit_tree

COLUMNS = ("row", "clean", "holes", "late", "tag")
#: ``tag``'s dictionary: the last two labels never occur.
LABELS = ("a", "b", "c", "never", "seen")

#: Summaries of columns holding both infinities are NaN, loudly.
pytestmark = pytest.mark.filterwarnings("ignore:invalid value encountered")


def _csv_text(table: Table, delimiter: str = ",") -> str:
    """``table`` as the CSV text :func:`write_csv` writes to a file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        write_csv(table, path, delimiter=delimiter)
        return path.read_bytes().decode("utf-8")


def _mixed_table(n: int, void: tuple[int, int], late_from: int, rng) -> Table:
    """``clean`` never misses, ``holes`` does — everywhere a little and
    in ``void`` (one whole partition) entirely — and ``late`` only from
    row ``late_from`` on; both carry ±inf.  ``row`` is the row number."""
    clean = rng.normal(size=n)
    clean[rng.random(n) < 0.05] = np.inf
    clean[rng.random(n) < 0.05] = -np.inf
    holes = rng.normal(size=n)
    holes[rng.random(n) < 0.05] = -np.inf
    holes[rng.random(n) < 0.2] = np.nan
    holes[void[0] : void[1]] = np.nan
    late = rng.uniform(-1, 1, n)
    late[late_from:][rng.random(n - late_from) < 0.5] = np.nan
    return Table(
        "mixed",
        [
            NumericColumn("row", np.arange(n, dtype=np.float64)),
            NumericColumn("clean", clean),
            NumericColumn("holes", holes),
            NumericColumn("late", late),
            CategoricalColumn("tag", rng.integers(-1, 3, n).astype(np.int32), LABELS),
        ],
    )


@st.composite
def _cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    n = draw(st.integers(60, 300))
    # Sizes that do not divide each other: partitions end mid-chunk.
    partition_rows = draw(st.sampled_from([23, 50, 97]))
    chunk_rows = draw(st.sampled_from([7, 16, 33, 64]))
    layout = draw(st.sampled_from(["zoned", "legacy", "append"]))
    part = draw(st.integers(0, (n - 1) // partition_rows))
    void = (part * partition_rows, min((part + 1) * partition_rows, n))
    n_head = draw(st.integers(30, n - 10)) if layout == "append" else n
    table = _mixed_table(n, void, n_head, rng)
    predicate = draw(
        st.sampled_from(
            [
                Everything(),
                Comparison("clean", ">", 0.0),
                Comparison("clean", "==", float("inf")),
                IsMissing("holes"),
                IsMissing("late"),
                Or((Comparison("holes", "<", 0.3), IsMissing("late"))),
                And.of(
                    Comparison("row", ">=", float(n // 3)),
                    Comparison("late", "<", 0.5),
                    In("tag", ("a", "c", "never")),
                ),
            ]
        )
    )
    tree = fit_tree(
        table,
        rng.integers(0, 3, n),
        feature_names=COLUMNS,
        params=CartParams(
            max_depth=draw(st.integers(1, 4)),
            min_samples_leaf=1,
            min_samples_split=2,
            min_impurity_decrease=0.0,
        ),
    )
    return table, partition_rows, chunk_rows, layout, n_head, predicate, tree


def _highlight(base, selection, n_selected):
    """``Explorer.highlight`` of a whole selection, without a map build:
    the state is planted, its one region is everything selected."""
    explorer = Explorer(base, config=BlaeuConfig(highlight_preview_rows=5))
    state = ExplorationState(
        selection=selection,
        columns=COLUMNS,
        map=DataMap(
            root=Region("r", "all rows", Everything(), n_selected, 0),
            columns=COLUMNS,
            k=1,
            silhouette=0.0,
            fidelity=1.0,
            sample_size=n_selected,
        ),
        action="planted",
    )
    explorer._stack.append(state)
    return explorer.highlight("r")


def _passes(stored, predicate, tree):
    """What the three passes of one action compute on a store."""
    mask = stored.scan_mask(predicate)
    counts = _node_counts(tree, stored, np.packbits(mask))
    return mask, counts, _highlight(stored, predicate, int(mask.sum()))


def _assert_equals_twin(stored, twin, predicate, tree):
    mask, counts, highlight = _passes(stored, predicate, tree)
    expected = np.asarray(predicate.mask(twin), dtype=bool)
    np.testing.assert_array_equal(mask, expected)
    np.testing.assert_array_equal(
        counts, count_reaching(tree.root, twin, np.flatnonzero(expected))
    )
    # Highlight is a dataclass of floats, ints and strings: == is bit
    # for bit except NaN, which repr compares too.
    assert repr(highlight) == repr(_highlight(twin, predicate, int(expected.sum())))


def _check_against_memory(case, check_zones_and_nmi):
    table, partition_rows, chunk_rows, layout, n_head, predicate, tree = case
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "s"
        head = table.take(np.arange(n_head))
        manifest = write_store(
            head, root, chunk_rows=chunk_rows, partition_rows=partition_rows
        )
        if layout == "legacy":
            dataclasses.replace(manifest, partitions=()).save(root)
        stored = StoredTable(root)
        if layout == "append":
            # ``late`` was null-free; the appended rows bring its first
            # nulls.  The table opened before still serves its own rows.
            tail = table.take(np.arange(n_head, table.n_rows))
            append_csv(io.StringIO(_csv_text(tail)), root, chunk_rows=chunk_rows)
            _assert_equals_twin(stored, head, predicate, tree)
            stored = StoredTable(root)
            assert stored.n_rows == table.n_rows
            assert int(stored.scan_mask(IsMissing("late")).sum()) == int(
                table.column("late").n_missing
            )
        _assert_equals_twin(stored, table, predicate, tree)
        check_zones_and_nmi(stored, table, partition_rows)


_relaxed = [HealthCheck.too_slow, HealthCheck.data_too_large]


@settings(max_examples=60, deadline=None, suppress_health_check=_relaxed)
@given(case=_cases())
def test_serial_passes_equal_the_memory_twin(case, check_zones_and_nmi):
    _check_against_memory(case, check_zones_and_nmi)


# ----------------------------------------------------------------------
# A fixed store for the exact budgets and the failure modes
# ----------------------------------------------------------------------

N_ROWS, PARTITION_ROWS, CHUNK_ROWS = 400, 100, 30
PREDICATE = And.of(Comparison("clean", ">", -10.0), Comparison("holes", "<", 5.0))


@pytest.fixture(scope="module")
def table():
    return _mixed_table(N_ROWS, (100, 200), N_ROWS, np.random.default_rng(11))


@pytest.fixture
def store_root(table, tmp_path):
    root = tmp_path / "s"
    write_store(table, root, chunk_rows=CHUNK_ROWS, partition_rows=PARTITION_ROWS)
    return root


@pytest.fixture(scope="module")
def tree(table):
    rng = np.random.default_rng(5)
    return fit_tree(
        table,
        rng.integers(0, 3, table.n_rows),
        feature_names=COLUMNS,
        params=CartParams(max_depth=3, min_samples_leaf=1),
    )


def _file(stored, name, role):
    return stored.manifest.column(name).files[role]


class TestNothingOutlivesItsChunk:
    """A reader that overwrites its buffers whenever the scan moves on
    (and when it closes) must not change what any pass returns."""

    class Scribbler(ChunkReader):
        rows = None

        def read(self, relative, dtype, start, stop):
            if (start, stop) != self.rows:
                self.scribble()
                self.rows = (start, stop)
            return super().read(relative, dtype, start, stop)

        def close(self):
            self.scribble()
            super().close()

        def scribble(self):
            for buffer in self._buffers.values():
                buffer.view(np.uint8)[:] = 0xA5

    def test_scribbled_buffers_change_no_result(self, store_root, tree, monkeypatch):
        stored = StoredTable(store_root)
        expected = _passes(stored, PREDICATE, tree)
        monkeypatch.setattr(
            StoredTable, "chunk_reader", lambda table: self.Scribbler(table.root)
        )
        mask, counts, highlight = _passes(stored, PREDICATE, tree)
        np.testing.assert_array_equal(mask, expected[0])
        np.testing.assert_array_equal(counts, expected[1])
        assert repr(highlight) == repr(expected[2])


class TestTruncatedFile:
    def test_a_short_read_is_a_typed_error_naming_file_and_bytes(self, store_root):
        stored = StoredTable(store_root)
        relative = _file(stored, "clean", "values")
        os.truncate(store_root / relative, 8 * 250)
        with pytest.raises(StoreReadError) as excinfo:
            stored.scan_mask(Comparison("clean", ">", 0.0))
        # Rows [230, 260) straddle the cut: 20 of the 30 cells are left.
        message = str(excinfo.value)
        assert relative in message and "160 of the 240 bytes" in message
        with pytest.raises(StoreReadError), stored.chunk_reader() as reader:
            list(stored.scan_chunks(reader, columns=("clean",)))


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc to count descriptors"
)
class TestNoDescriptorLeaks:
    @pytest.fixture
    def arm(self, monkeypatch):
        """Install fault rules here and in ``BLAEU_FAULTS``; cleared
        when the test ends."""

        def arm(*faults):
            spec = json.dumps({"seed": 1, "faults": list(faults)})
            monkeypatch.setenv("BLAEU_FAULTS", spec)
            install_faults(parse_faults(spec))

        yield arm
        install_faults(None)

    def test_faulted_and_expired_scans_close_their_files(self, store_root, arm):
        stored = StoredTable(store_root)
        stored.scan_mask(PREDICATE)  # first-use state (metrics, tracer) exists now
        before = len(os.listdir("/proc/self/fd"))
        # The fourth chunk read fails: files are open by then.
        arm({"site": "store.read", "mode": "error", "after": 3})
        with pytest.raises(InjectedFault):
            stored.scan_mask(PREDICATE)
        # Every chunk read takes 10 ms: the deadline expires mid-scan.
        arm({"site": "store.read", "mode": "latency", "seconds": 0.01})
        with deadline_scope(0.025):
            with pytest.raises(DeadlineExceeded) as excinfo:
                stored.scan_mask(PREDICATE)
        assert excinfo.value.stage in ("store.chunk", "store.partition")
        with stored.chunk_reader() as reader:
            chunks = stored.scan_chunks(reader)  # abandoned mid-way
            next(chunks)
            del chunks
        assert len(os.listdir("/proc/self/fd")) == before


class TestReadBudgets:
    @pytest.fixture
    def opened(self, monkeypatch):
        """Paths (relative to the store) the readers opened, in order."""
        paths = []

        def recording_open(path, mode):
            paths.append("/".join(Path(path).parts[-2:]))
            return open(path, mode)

        monkeypatch.setattr(store_format, "open", recording_open, raising=False)
        return paths

    @pytest.fixture
    def readers(self, monkeypatch):
        """Every reader the passes created, kept to be inspected."""
        made = []
        create = StoredTable.chunk_reader

        def recording_reader(self):
            made.append(create(self))
            return made[-1]

        monkeypatch.setattr(StoredTable, "chunk_reader", recording_reader)
        return made

    def test_each_needed_file_is_opened_once_per_scan(
        self, store_root, tree, opened, readers
    ):
        stored = StoredTable(store_root)
        mask = stored.scan_mask(PREDICATE)  # 4 partitions, 16 chunks
        # ``clean`` is null-free: its mask file is never touched.  The
        # zones of ``holes`` record nulls in every partition.
        assert sorted(opened) == sorted(
            [
                _file(stored, "clean", "values"),
                _file(stored, "holes", "values"),
                _file(stored, "holes", "mask"),
            ]
        )
        _node_counts(tree, stored, np.packbits(mask))
        _highlight(stored, PREDICATE, int(mask.sum()))
        # The scan, the count pass and the highlight's one pass (the
        # predicate and the matches together): each opened what it
        # needed once, into one buffer per file of at most one chunk —
        # and closed it.
        assert len(readers) == 3
        assert len(opened) == sum(len(reader._buffers) for reader in readers)
        for reader in readers:
            assert reader._buffers and not reader._files
            assert all(
                buffer.shape[0] <= CHUNK_ROWS for buffer in reader._buffers.values()
            )
        null_free = {_file(stored, name, "mask") for name in ("row", "clean", "late")}
        assert _file(stored, "row", "values") in opened
        assert not null_free & set(opened)

    def test_zone_less_and_nullable_partitions_read_the_mask(
        self, store_root, opened
    ):
        manifest = StoreManifest.load(store_root)
        dataclasses.replace(manifest, partitions=()).save(store_root)
        legacy = StoredTable(store_root)
        legacy.scan_mask(Comparison("clean", ">", 0.0))
        assert sorted(opened) == sorted(
            [_file(legacy, "clean", "values"), _file(legacy, "clean", "mask")]
        )

    def test_a_scan_builds_no_dictionary_index(self, tmp_path, monkeypatch):
        """The label → code index of a wide dictionary is built when the
        table first needs it, not once per chunk."""
        n, labels = 2000, 500
        rng = np.random.default_rng(3)
        wide = Table(
            "wide",
            [
                CategoricalColumn(
                    "label",
                    rng.integers(0, labels, n).astype(np.int32),
                    [f"L{i}" for i in range(labels)],
                )
            ],
        )
        root = tmp_path / "wide"
        write_store(wide, root, chunk_rows=50, partition_rows=500)
        stored = StoredTable(root)
        builds = []
        init = CategoricalColumn.__init__

        def counting_init(self, name, codes, categories):
            builds.append(name)
            init(self, name, codes, categories)

        monkeypatch.setattr(CategoricalColumn, "__init__", counting_init)
        predicate = In("label", ("L1", "L7"))
        mask = stored.scan_mask(predicate)  # 40 chunks
        np.testing.assert_array_equal(mask, predicate.mask(wide))
        stored.scan_mask(predicate)
        stored.take(np.flatnonzero(mask))
        assert builds == ["label"]
