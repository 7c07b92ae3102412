"""Theme resolution: exact key detection that does not read the table,
and one theme set per table content for every session and worker.

The differential property pins ``detect_keys`` and ``extract_themes`` to
the whole-column implementation they replaced (kept below as the
reference), on the memory table and its store twin.  The budget tests
state what the early exits promise; the engine tests state who computes
themes, how often, and where everybody else gets them from.
"""

import sys
import tempfile
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.engine as engine_module
from repro.core.config import BlaeuConfig
from repro.core.engine import Blaeu
from repro.core.themes import Theme, ThemeSet, _cohesion, extract_themes
from repro.graph.dependency import GraphBuilder
from repro.graph.partition import pam_partition
from repro.obs.trace import Tracer, get_tracer, set_tracer
from repro.server.protocol import Request
from repro.server.session import SessionManager
from repro.service.cache import LRUCache, TieredCache
from repro.store import StoredTable, write_store
from repro.store.artifacts import ArtifactCache, _key_hash
from repro.table.column import CategoricalColumn, Column, NumericColumn
from repro.table.schema import KEY_NAME_HINTS, KeyScan, detect_keys
from repro.table.table import Table

CAP = 6
CONFIG = BlaeuConfig(
    max_categorical_cardinality=CAP,
    dependency_sample_size=64,
    map_k_values=(2, 3),
    theme_k_values=(2, 3),
)


# ----------------------------------------------------------------------
# The reference: key detection and theme extraction as whole-column passes
# ----------------------------------------------------------------------


def _reference_detect_keys(table: Table) -> tuple[str, ...]:
    keys = []
    for column in table.columns:
        if len(column) == 0:
            continue
        if isinstance(column, NumericColumn):
            present = column.present_values()
            if present.size == 0 or not bool(
                (present == present.astype(np.int64)).all()
            ):
                continue
        if column.is_unique_key():
            keys.append(column.name)
            continue
        lowered = column.name.lower()
        hinted = any(
            lowered == hint or lowered.endswith("_" + hint) or lowered.endswith(hint)
            for hint in KEY_NAME_HINTS
        )
        if hinted and column.n_distinct() > 0.95 * len(column):
            keys.append(column.name)
    return tuple(keys)


def _reference_extract_themes(
    table: Table, config: BlaeuConfig, columns: tuple[str, ...] | None = None
) -> ThemeSet:
    candidates = list(columns) if columns is not None else list(table.column_names)
    keys = set(_reference_detect_keys(table))
    for column in table.columns:
        if (
            column.name in candidates
            and isinstance(column, CategoricalColumn)
            and column.n_distinct() > config.max_categorical_cardinality
        ):
            keys.add(column.name)
    kept = tuple(c for c in candidates if c not in keys)
    excluded = tuple(c for c in candidates if c in keys)
    if len(kept) < 2:
        raise ValueError("theme extraction needs at least two non-key columns")
    graph = GraphBuilder().build(
        table,
        columns=kept,
        measure="nmi",
        sample=config.dependency_sample_size,
        seed=config.seed,
        n_jobs=config.graph_jobs,
        bin_sample_size=config.graph_bin_sample_size,
    )
    groups, selection = pam_partition(graph, k_values=config.theme_k_values)
    themes = tuple(
        Theme(name=g[0], columns=tuple(g), cohesion=_cohesion(graph, tuple(g)))
        for g in sorted(groups, key=lambda g: (-len(g), g[0]))
    )
    return ThemeSet(
        themes=themes,
        graph=graph,
        silhouette=selection.best.silhouette,
        k_scores=selection.scores(),
        excluded_keys=excluded,
    )


def assert_same_themes(left: ThemeSet, right: ThemeSet) -> None:
    assert left.themes == right.themes
    assert left.excluded_keys == right.excluded_keys
    assert left.silhouette == right.silhouette
    assert left.k_scores == right.k_scores
    assert left.graph.columns == right.graph.columns
    assert left.graph.measure == right.graph.measure
    np.testing.assert_array_equal(left.graph.weights, right.graph.weights)


# ----------------------------------------------------------------------
# The differential property
# ----------------------------------------------------------------------


def _with_distinct(n: int, distinct: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` whole numbers of which exactly ``distinct`` differ, shuffled."""
    distinct = min(max(distinct, 1), n)
    values = np.concatenate(
        [np.arange(distinct), rng.integers(0, distinct, n - distinct)]
    ).astype(np.float64)
    return rng.permutation(values)


def _labels(name: str, n: int, used: int, size: int, rng) -> CategoricalColumn:
    """``used`` labels occur; the dictionary holds ``size`` (a filtered
    column keeps its parent's dictionary, so it may hold more)."""
    used = min(max(used, 1), n)
    codes = np.concatenate([np.arange(used), rng.integers(0, used, n - used)])
    categories = [f"{name}{i}" for i in range(max(size, used))]
    return CategoricalColumn(name, rng.permutation(codes).astype(np.int32), categories)


@st.composite
def _cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    n = draw(st.integers(40, 260))
    chunk_rows = draw(st.sampled_from([7, 16, 33, 64, 1000]))
    edge = [int(0.94 * n), int(0.95 * n), int(0.95 * n) + 1, -(-96 * n // 100), n]

    base = rng.normal(size=n)
    columns: list[Column] = [
        NumericColumn("x", base + rng.normal(0, 0.1, n)),
        NumericColumn("y", -base + rng.normal(0, 0.1, n)),
        NumericColumn("z", rng.normal(size=n)),
    ]

    # Whole numbers for at least the first chunk, a fraction after it.
    late = np.arange(n, dtype=np.float64)
    if draw(st.booleans()):
        late[draw(st.integers(min(chunk_rows, n - 1), n - 1))] += 0.5
    columns.append(NumericColumn("late", late))

    serial = rng.permutation(n).astype(np.float64)
    flaw = draw(st.sampled_from(["none", "duplicate", "missing"]))
    if flaw == "duplicate":
        serial[draw(st.integers(1, n - 1))] = serial[0]
    elif flaw == "missing":
        serial[draw(st.integers(0, n - 1))] = np.nan
    columns.append(NumericColumn("serial", serial))

    columns.append(NumericColumn("void", np.full(n, np.nan)))
    spiky = rng.permutation(n).astype(np.float64)
    spiky[draw(st.integers(0, n - 1))] = draw(st.sampled_from([np.inf, -np.inf]))
    columns.append(NumericColumn("spiky", spiky))

    acct = _with_distinct(n, draw(st.sampled_from(edge)), rng)
    if draw(st.booleans()):
        acct[draw(st.integers(0, n - 1))] = np.nan
    columns.append(NumericColumn("acct_id", acct))

    used = draw(st.sampled_from(edge))
    columns.append(
        _labels("zip_code", n, used, draw(st.sampled_from([used, used + 3, n])), rng)
    )
    used = draw(st.sampled_from([CAP - 1, CAP, CAP + 1]))
    columns.append(
        _labels("kind", n, used, draw(st.sampled_from([used, CAP + 1, 3 * CAP])), rng)
    )
    name_codes = rng.permutation(n).astype(np.int32)
    flaw = draw(st.sampled_from(["none", "duplicate", "missing"]))
    if flaw == "duplicate":
        name_codes[draw(st.integers(1, n - 1))] = name_codes[0]
    elif flaw == "missing":
        name_codes[draw(st.integers(0, n - 1))] = -1
    columns.append(
        CategoricalColumn("name", name_codes, [f"p{i}" for i in range(n)])
    )
    columns.append(
        CategoricalColumn("blank", np.full(n, -1, dtype=np.int32), ("u",))
    )
    order = draw(st.permutations(range(len(columns))))
    return Table("mixed", [columns[i] for i in order]), chunk_rows


@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(case=_cases())
def test_keys_and_themes_equal_the_whole_column_reference(case, monkeypatch):
    table, chunk_rows = case
    monkeypatch.setattr(Table, "chunk_rows", chunk_rows)
    with np.errstate(invalid="ignore"), tempfile.TemporaryDirectory() as tmp:
        write_store(table, Path(tmp) / "s", chunk_rows=chunk_rows, partition_rows=97)
        twins = (table, StoredTable(Path(tmp) / "s"))

        expected_keys = _reference_detect_keys(table)
        # The dependency graph bins finite values only: "spiky" is in
        # the key tests and out of the themes.
        finite = tuple(name for name in table.column_names if name != "spiky")
        expected = _reference_extract_themes(table, CONFIG, finite)
        subset = table.column_names[::2]
        for twin in twins:
            assert detect_keys(twin) == expected_keys
            assert detect_keys(twin, subset) == tuple(
                name for name in subset if name in expected_keys
            )
            assert_same_themes(
                extract_themes(twin, config=CONFIG, columns=finite), expected
            )


def test_reference_and_scan_agree_that_too_few_columns_remain():
    table = Table(
        "keys_only",
        [
            NumericColumn("row_id", np.arange(50, dtype=np.float64)),
            NumericColumn("x", np.random.default_rng(0).normal(size=50)),
        ],
    )
    with pytest.raises(ValueError, match="at least two non-key columns"):
        _reference_extract_themes(table, CONFIG)
    with pytest.raises(ValueError, match="at least two non-key columns"):
        extract_themes(table, config=CONFIG)


# ----------------------------------------------------------------------
# Read budgets
# ----------------------------------------------------------------------


def _measurements(n: int = 1000) -> Table:
    """Continuous numeric columns and small dictionaries: the shape of a
    table of measurements, where nothing is a key."""
    rng = np.random.default_rng(5)
    base = rng.normal(size=n)
    return Table(
        "measurements",
        [
            NumericColumn("a", base + rng.normal(0, 0.1, n)),
            NumericColumn("b", -base + rng.normal(0, 0.1, n)),
            NumericColumn("c", rng.normal(size=n)),
            NumericColumn("d", rng.uniform(size=n)),
            CategoricalColumn("kind", rng.integers(0, 4, n), ("p", "q", "r", "s")),
            CategoricalColumn("site_code", rng.integers(-1, 3, n), ("u", "v", "w")),
        ],
    )


@pytest.fixture
def measurements_store(tmp_path):
    write_store(_measurements(), tmp_path / "m", chunk_rows=100, partition_rows=400)
    return StoredTable(tmp_path / "m")


def test_key_scan_reads_one_chunk_per_measurement_and_no_codes(
    measurements_store, monkeypatch
):
    def unreadable(self):
        raise AssertionError("key detection read a categorical column")

    for name in ("codes", "n_missing"):
        monkeypatch.setattr(CategoricalColumn, name, property(unreadable))
    monkeypatch.setattr(CategoricalColumn, "n_distinct", unreadable)

    for table in (_measurements(), measurements_store):
        scan = KeyScan(table)
        assert scan.keys() == ()
        for name in ("kind", "site_code"):
            assert not scan.wider_than(table.column(name), 50)
        assert scan.chunks == 4  # ten chunks a column on the store


def test_an_integer_id_pays_the_full_count_and_nothing_else_does(tmp_path):
    n = 1000
    table = Table(
        "ids",
        [
            NumericColumn("row", np.arange(n, dtype=np.float64)),
            NumericColumn("x", np.random.default_rng(1).normal(size=n)),
        ],
    )
    write_store(table, tmp_path / "s", chunk_rows=100)
    scan = KeyScan(StoredTable(tmp_path / "s"))
    assert scan.keys() == ("row",)
    # "row": ten chunks to prove integrality, ten for the distinct count.
    assert scan.chunks == 10 + 10 + 1


@pytest.fixture
def traced():
    previous = get_tracer()
    tracer = Tracer(enabled=True)
    set_tracer(tracer)
    yield tracer
    set_tracer(previous)


def _resolutions(tracer: Tracer) -> list[dict]:
    return [
        dict(span.attributes)
        for span in tracer.spans()
        if span.name == "themes.resolve"
    ]


# ----------------------------------------------------------------------
# One theme set per table content
# ----------------------------------------------------------------------


def _walk(explorer) -> list[dict]:
    """Open the first theme, zoom into its largest region, project."""
    first = explorer.open_theme(0)
    biggest = max(first.leaves(), key=lambda region: region.n_rows)
    maps = [first, explorer.zoom(biggest.region_id), explorer.project(1)]
    return [data_map.to_dict() for data_map in maps]


@pytest.mark.parametrize("cached", [False, True])
def test_maps_do_not_depend_on_when_themes_were_first_resolved(cached):
    table = _measurements(400)
    # Samples smaller than the table: every build draws from its generator.
    config = replace(CONFIG, map_sample_size=150)

    def session(themes_first: bool) -> list[dict]:
        engine = Blaeu(config, map_cache=LRUCache(max_size=64) if cached else None)
        engine.register(table)
        if themes_first:
            engine.themes(table.name)
        return _walk(engine.explore(table.name))

    assert session(themes_first=True) == session(themes_first=False)


def test_a_standalone_explorer_roots_its_themes_at_the_seed():
    from repro.core.navigation import Explorer

    table = _measurements(400)
    config = replace(CONFIG, map_sample_size=150)
    late = Explorer(table, config=config)
    late.open_columns(("a", "b"))
    assert_same_themes(late.themes(), extract_themes(table, config=config))


def test_eight_concurrent_opens_extract_themes_once(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(threading.get_ident())
        time.sleep(0.05)  # hold the flight open while the others arrive
        return extract_themes(*args, **kwargs)

    monkeypatch.setattr(engine_module, "extract_themes", counted)
    engine = Blaeu(CONFIG, map_cache=LRUCache(max_size=64))
    engine.register(_measurements(400))
    manager = SessionManager(engine)
    barrier = threading.Barrier(8)
    responses = {}

    def open_session(index: int) -> None:
        barrier.wait(timeout=10)
        responses[index] = manager.handle(
            Request(
                "open",
                {"session": f"s{index}", "table": "measurements", "theme": 0},
            )
        )

    threads = [threading.Thread(target=open_session, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(calls) == 1
    assert all(response.ok for response in responses.values())
    maps = [responses[i].payload["map"] for i in range(8)]
    assert all(served == maps[0] for served in maps)


def test_themes_follow_content_not_the_table_name():
    engine = Blaeu(CONFIG)
    table = _measurements(300)
    engine.register(table)
    first = engine.themes("measurements")
    engine.register(table.rename("again"))
    assert engine.themes("again") is first
    engine.register(_measurements(301))
    assert engine.themes("measurements") is not first


def _fleet_engine(store: Path, cache_dir: Path) -> Blaeu:
    """What one ``blaeu serve --cache-dir`` worker holds."""
    engine = Blaeu(
        CONFIG,
        map_cache=TieredCache(LRUCache(max_size=64), ArtifactCache(cache_dir)),
    )
    engine.load_store(store)
    return engine


def test_a_second_engine_is_served_themes_from_the_shared_cache_dir(
    tmp_path, traced
):
    write_store(_measurements(), tmp_path / "m", chunk_rows=100)
    first = _fleet_engine(tmp_path / "m", tmp_path / "cache")
    computed = first.themes("measurements")
    assert first.themes("measurements") is computed

    second = _fleet_engine(tmp_path / "m", tmp_path / "cache")
    served = second.themes("measurements")
    assert_same_themes(served, computed)
    assert second.graph_builder.stats()["builds"] == 0

    # A third engine over the second's cache object shares its L1.
    third = Blaeu(CONFIG, map_cache=second.map_cache)
    third.load_store(tmp_path / "m")
    assert third.themes("measurements") is served

    assert _resolutions(traced) == [
        {"source": "computed", "key_scan_chunks": 4},
        {"source": "memo", "key_scan_chunks": 0},
        {"source": "l2", "key_scan_chunks": 0},
        {"source": "l1", "key_scan_chunks": 0},
    ]


def test_a_corrupt_theme_artifact_is_a_miss_and_themes_are_recomputed(
    tmp_path, traced
):
    write_store(_measurements(), tmp_path / "m", chunk_rows=100)
    first = _fleet_engine(tmp_path / "m", tmp_path / "cache")
    computed = first.themes("measurements")

    table = first.database.table("measurements")
    name = _key_hash(("themes", table.fingerprint(), CONFIG.digest()))
    artifact = tmp_path / "cache" / "objects" / name[:2] / f"{name}.art"
    blob = bytearray(artifact.read_bytes())
    blob[-1] ^= 0xFF
    artifact.write_bytes(bytes(blob))

    second = _fleet_engine(tmp_path / "m", tmp_path / "cache")
    assert_same_themes(second.themes("measurements"), computed)
    assert second.map_cache.disk.stats().quarantined == 1
    assert [r["source"] for r in _resolutions(traced)] == ["computed", "computed"]
    # The recomputed set was published again: the next boot is served.
    third = _fleet_engine(tmp_path / "m", tmp_path / "cache")
    assert_same_themes(third.themes("measurements"), computed)
    assert _resolutions(traced)[-1]["source"] == "l2"
