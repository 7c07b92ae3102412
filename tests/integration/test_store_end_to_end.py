"""End-to-end acceptance for the out-of-core store layer.

Two guarantees from the issue:

* maps built through a store-backed table are **bit-identical** to the
  in-memory path at the same engine seed (open, zoom, and over the
  explicit-columns API), and
* a 1M-row synthetic table can be ingested and mapped end to end
  (``blaeu ingest`` → ``explore`` → ``open_theme``) with peak RSS
  bounded by chunk size + sample size — asserted on a subprocess so the
  measurement is not polluted by the test runner's own footprint.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import BlaeuConfig
from repro.core.engine import Blaeu
from repro.store import ingest_csv
from repro.table.column import CategoricalColumn, NumericColumn
from repro.table.csv_io import read_csv
from repro.table.table import Table
from repro.viz.export import export_map_json

SRC_DIR = str(Path(__file__).resolve().parents[2] / "src")


def _write_blob_csv(path: Path, n: int, seed: int) -> None:
    """Stream a clusterable CSV to disk without holding it in memory."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 4, size=n)
    x = labels * 8.0 + rng.normal(0.0, 0.6, n)
    y = labels * -7.0 + rng.normal(0.0, 0.6, n)
    z = rng.normal(0.0, 1.0, n)
    tags = np.array(["north", "east", "south", "west"])[labels]
    with path.open("w", encoding="utf-8") as handle:
        handle.write("x,y,z,tag\n")
        step = 100_000
        for start in range(0, n, step):
            stop = min(start + step, n)
            # tolist() yields Python floats, whose repr round-trips the
            # exact value (np scalars render as "np.float64(...)" ).
            rows = zip(
                x[start:stop].tolist(),
                y[start:stop].tolist(),
                z[start:stop].tolist(),
                tags[start:stop].tolist(),
            )
            handle.write(
                "".join(f"{a!r},{b!r},{c!r},{t}\n" for a, b, c, t in rows)
            )


def _table_from_same_arrays(name: str, n: int, seed: int) -> Table:
    """The in-memory twin of :func:`_write_blob_csv` (repr round-trips
    floats exactly, so the CSV-ingested store holds identical bytes)."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 4, size=n)
    x = labels * 8.0 + rng.normal(0.0, 0.6, n)
    y = labels * -7.0 + rng.normal(0.0, 0.6, n)
    z = rng.normal(0.0, 1.0, n)
    tags = np.array(["north", "east", "south", "west"])[labels]
    return Table(
        name,
        [
            NumericColumn("x", x),
            NumericColumn("y", y),
            NumericColumn("z", z),
            CategoricalColumn.from_labels("tag", list(tags)),
        ],
    )


class TestBitIdentity:
    @pytest.fixture(scope="class")
    def engines(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("bitid")
        csv_path = tmp / "blobs.csv"
        _write_blob_csv(csv_path, n=3_000, seed=5)

        stored_engine = Blaeu(BlaeuConfig())
        stored_engine.register(
            ingest_csv(csv_path, tmp / "store", name="blobs", chunk_rows=512)
        )
        memory_engine = Blaeu(BlaeuConfig())
        memory_engine.register(read_csv(csv_path, name="blobs"))
        return stored_engine, memory_engine

    def test_open_theme_and_zoom_identical(self, engines):
        stored_engine, memory_engine = engines
        stored = stored_engine.explore("blobs")
        memory = memory_engine.explore("blobs")
        map_s = stored.open_theme(0)
        map_m = memory.open_theme(0)
        assert export_map_json(map_s) == export_map_json(map_m)

        child = map_s.root.children[0].region_id
        assert export_map_json(stored.zoom(child)) == export_map_json(
            memory.zoom(child)
        )

    def test_one_shot_map_identical(self, engines):
        stored_engine, memory_engine = engines
        assert export_map_json(
            stored_engine.map("blobs", ("x", "y"), k=4)
        ) == export_map_json(memory_engine.map("blobs", ("x", "y"), k=4))

    def test_store_fingerprint_equals_csv_load(self, engines):
        stored_engine, memory_engine = engines
        assert (
            stored_engine.database.table("blobs").fingerprint()
            == memory_engine.database.table("blobs").fingerprint()
        )


_CHILD_SCRIPT = """
import hashlib, json, resource, sys
from pathlib import Path

from repro.core.config import BlaeuConfig
from repro.core.engine import Blaeu
from repro.store import ingest_csv
from repro.viz.export import export_map_json


def peak_rss_kb():
    # This process's own high-water mark.  On Linux ru_maxrss also keeps
    # the forking parent's peak across exec, so a large test process run
    # first would decide the figure; VmHWM belongs to this process alone.
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


csv_path, store_dir, chunk_rows = sys.argv[1], sys.argv[2], int(sys.argv[3])
stored = ingest_csv(
    csv_path, store_dir, name="blobs", chunk_rows=chunk_rows
)
engine = Blaeu(BlaeuConfig())
engine.register(stored)
explorer = engine.explore("blobs")
themes = explorer.themes()
data_map = explorer.open_theme(0)
exported = export_map_json(data_map)
print(json.dumps({
    "n_rows": stored.n_rows,
    "fingerprint": stored.fingerprint(),
    "map_sha": hashlib.sha256(exported.encode()).hexdigest(),
    "graph_sha": hashlib.sha256(
        themes.graph.weights.tobytes()
    ).hexdigest(),
    "theme_columns": [list(t.columns) for t in themes],
    "k": data_map.k,
    "peak_rss_kb": peak_rss_kb(),
}))
"""

#: Peak-RSS ceiling for the 1M-row subprocess, in KB.  The interpreter +
#: numpy alone cost ~60–90 MB; the chunked ingest and the sampled map
#: build add chunk-sized buffers, the 2k-row sample, and a handful of
#: n-row bool/int arrays (routing masks, priorities).  Materializing the
#: CSV the in-memory way (Python string cells for 4M values) costs well
#: over 1 GB, so this bound fails loudly if chunking ever regresses to a
#: full materialization.
_MAX_RSS_KB = 400_000

N_ROWS = 1_000_000
CHUNK_ROWS = 131_072
SEED = 131


class TestMillionRowEndToEnd:
    @pytest.fixture(scope="class")
    def child_report(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("million")
        csv_path = tmp / "big.csv"
        _write_blob_csv(csv_path, n=N_ROWS, seed=SEED)
        script = tmp / "child.py"
        script.write_text(_CHILD_SCRIPT, encoding="utf-8")
        result = subprocess.run(
            [
                sys.executable,
                str(script),
                str(csv_path),
                str(tmp / "store"),
                str(CHUNK_ROWS),
            ],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": SRC_DIR, "PATH": "/usr/bin:/bin"},
            timeout=600,
        )
        assert result.returncode == 0, result.stderr
        return json.loads(result.stdout.strip().splitlines()[-1])

    def test_ingests_and_maps_the_full_table(self, child_report):
        assert child_report["n_rows"] == N_ROWS
        assert child_report["k"] >= 2

    def test_peak_rss_bounded_by_chunk_plus_sample(self, child_report):
        assert child_report["peak_rss_kb"] < _MAX_RSS_KB, (
            f"subprocess peaked at {child_report['peak_rss_kb']} KB; the "
            "out-of-core path must stay bounded by chunk + sample size"
        )

    def test_map_bit_identical_to_in_memory_path(self, child_report):
        table = _table_from_same_arrays("blobs", N_ROWS, SEED)
        assert table.fingerprint() == child_report["fingerprint"]
        engine = Blaeu(BlaeuConfig())
        engine.register(table)
        explorer = engine.explore("blobs")
        themes = explorer.themes()
        data_map = explorer.open_theme(0)
        expected = hashlib.sha256(
            export_map_json(data_map).encode()
        ).hexdigest()
        assert expected == child_report["map_sha"]
        # The dependency graph behind the themes — built out-of-core in
        # the child (pushdown gathers, no full-column materialization) —
        # must match the in-memory build bit for bit.
        expected_graph = hashlib.sha256(
            themes.graph.weights.tobytes()
        ).hexdigest()
        assert expected_graph == child_report["graph_sha"]
        assert [
            list(t.columns) for t in themes
        ] == child_report["theme_columns"]
