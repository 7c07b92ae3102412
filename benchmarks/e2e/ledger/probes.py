"""In-process probes: calls into each layer's public functions, timed.

Run once per traced run, after the timed phases, on the workload's own
store.  They say what a layer costs by itself; the ``/metrics`` deltas in
:mod:`ledger.layers` say what it cost inside the served requests.
"""

from __future__ import annotations

import shutil
import statistics
import time
from typing import Callable

import numpy as np

from ledger import data
from ledger.procs import Server

from repro.cluster.clara import clara
from repro.cluster.stages import ClusterParams, cluster_features
from repro.core.config import BlaeuConfig
from repro.core.engine import Blaeu
from repro.core.preprocess import preprocess
from repro.core.themes import extract_themes
from repro.server.protocol import Request
from repro.server.session import SessionManager
from repro.store.artifacts import ArtifactCache
from repro.store.codec import decode, encodable, encode
from repro.store.format import write_store
from repro.store.ingest import append_csv, ingest_csv
from repro.store.stored import StoredTable
from repro.table.csv_io import CsvChunkReader
from repro.table.predicates import Comparison
from repro.tree.cart import fit_tree
from repro.viz.export import export_map_json

_THEME = ("b_kind", "b_x", "b_y", "b_z")


class _Recorder:
    """A result cache that misses and remembers what was put."""

    def __init__(self) -> None:
        self.entries: dict[object, object] = {}

    def get(self, key: object) -> object | None:
        return None

    def put(self, key: object, value: object) -> None:
        self.entries[key] = value


def run_probes(run) -> dict[str, float]:
    """Every probe metric of one traced run."""
    spans = run.ledger.spans
    repeats = run.sizes.probe_repeats
    scratch = run.work / "probes"
    scratch.mkdir()
    out: dict[str, float] = {}

    def timed(name: str, call: Callable[[], object], n: int = repeats) -> float:
        """Median seconds of ``n`` calls, each under a span."""
        samples = []
        for _ in range(n):
            with spans.span(f"probe.{name}"):
                started = time.perf_counter()
                call()
                samples.append(time.perf_counter() - started)
        return statistics.median(samples)

    stored = StoredTable(run.probe_store, scan_jobs=None)
    table_name = stored.name
    config = BlaeuConfig()

    # store.stored / store.partitions
    out["store.scan_mask_ms"] = 1e3 * timed(
        "scan_mask", lambda: stored.scan_mask(Comparison("b_x", ">", 0.0))
    )
    out["store.topk_sample_ms"] = 1e3 * timed(
        "topk_sample", lambda: stored.top_k_sample(config.map_sample_size)
    )
    picked = stored.top_k_sample(config.map_sample_size)
    out["store.take_ms"] = 1e3 * timed("take", lambda: stored.take(picked))
    sample = stored.take(picked)

    # cluster / tree
    features = preprocess(sample, _THEME)
    out["cluster.clara_ms"] = 1e3 * timed(
        "clara",
        lambda: clara(features.matrix, 4, rng=np.random.default_rng(0)),
    )
    out["cluster.select_k_ms"] = 1e3 * timed(
        "select_k",
        lambda: cluster_features(
            features.matrix, ClusterParams(), np.random.default_rng(0)
        ),
    )
    labels = clara(features.matrix, 4, rng=np.random.default_rng(0)).labels
    projected = sample.project(_THEME)
    out["tree.fit_ms"] = 1e3 * timed("tree_fit", lambda: fit_tree(projected, labels))

    # graph / stats
    out["graph.themes_cold_ms"] = 1e3 * timed(
        "themes_cold", lambda: extract_themes(stored, config=config)
    )

    def open_without_themes() -> None:
        engine = Blaeu(config)
        engine.load_store(run.probe_store)
        engine.explore(table_name).open_theme(0)

    out["graph.open_no_themes_ms"] = 1e3 * timed("open_no_themes", open_without_themes)

    # server.session / viz / guide, on one warm session
    recorder = _Recorder()
    engine = Blaeu(config, map_cache=recorder)
    engine.load_store(run.probe_store)
    engine.themes(table_name)
    manager = SessionManager(engine)
    manager.handle(
        Request("open", {"session": "probe", "table": table_name, "theme": 0})
    )
    look = Request("map", {"session": "probe"})
    out["session.handle_warm_us"] = 1e6 * timed(
        "session_handle", lambda: manager.handle(look), n=200
    )
    explorer = manager.peek("probe")
    data_map = explorer.state.map
    out["viz.export_map_json_us"] = 1e6 * timed(
        "export_map_json", lambda: export_map_json(data_map), n=200
    )
    out["guide.suggest_ms"] = 1e3 * timed("suggest", lambda: explorer.suggest(limit=3))

    # store.codec / store.artifacts: everything one cold open put in the cache
    artifacts = [(k, v) for k, v in recorder.entries.items() if encodable(v)]
    blobs: list[bytes] = []

    def encode_all() -> None:
        blobs[:] = [encode(value) for _, value in artifacts]

    out["codec.encode_ms"] = 1e3 * timed("codec_encode", encode_all)
    out["codec.artifact_bytes"] = float(sum(len(blob) for blob in blobs))
    out["codec.decode_ms"] = 1e3 * timed(
        "codec_decode", lambda: [decode(blob) for blob in blobs]
    )
    disk = ArtifactCache(scratch / "artifacts")
    out["artifacts.put_ms"] = 1e3 * timed(
        "artifacts_put", lambda: [disk.put(key, value) for key, value in artifacts]
    )
    out["artifacts.get_ms"] = 1e3 * timed(
        "artifacts_get", lambda: [disk.get(key) for key, _ in artifacts]
    )

    # table.csv_io / store.ingest, on a slice of the workload's table
    probe_table = run.probe_table
    csv_rows = min(probe_table.n_rows, 20_000)
    csv_path = scratch / "probe.csv"
    data.write_csv(probe_table, csv_path, 0, csv_rows)

    def parse() -> None:
        with csv_path.open(encoding="utf-8", newline="") as handle:
            for _chunk in CsvChunkReader(handle, chunk_rows=65_536):
                pass

    out["ingest.parse_rows_per_s"] = csv_rows / timed("csv_parse", parse)
    ingested = scratch / "ingested"

    def ingest() -> None:
        shutil.rmtree(ingested, ignore_errors=True)
        ingest_csv(csv_path, ingested, name="probe")

    out["ingest.inproc_rows_per_s"] = csv_rows / timed("ingest_csv", ingest)
    out["ingest.append_rows_per_s"] = csv_rows / timed(
        "append_csv", lambda: append_csv(csv_path, ingested)
    )
    written = scratch / "written"

    def write() -> None:
        shutil.rmtree(written, ignore_errors=True)
        write_store(probe_table, written)

    out["store.write_store_s"] = timed("write_store", write, n=1)

    out["obs.trace_overhead_share"] = _trace_overhead(run, table_name)
    shutil.rmtree(scratch, ignore_errors=True)
    return out


def _trace_overhead(run, table_name: str) -> float:
    """The same short walk against a traced and an untraced server: the
    relative gap of the summed request times."""
    from ledger.workloads import walk_plan

    plan = data.make_plan("cold", (table_name,), 2, run.seed)
    table_rows = {table_name: StoredTable(run.probe_store).n_rows}
    totals = []
    for traced in (False, True):
        phase = f"probe.traced={int(traced)}"
        server = Server(run.work, [str(run.probe_store)], traced=traced)
        try:
            run.ledger.fresh_boot()
            walk_plan(run, server, plan, table_rows, phase, themes_first=True)
        finally:
            server.close()
        totals.append(sum(a.seconds for a in run.ledger.timed(phase)))
    return totals[1] / totals[0] - 1.0
