"""The four served workloads.

Each one sets up ``setup_reps`` times (``setup_s`` is the median), then
repeats one homogeneous timed round until ``--seconds`` are used.  Rounds
of a workload do identical work, so the pooled statistics do not depend
on how many of them the host fitted in.
"""

from __future__ import annotations

import shutil
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from ledger import data, layers
from ledger.client import Client, Ledger, Spans, Walker
from ledger.procs import Server, run_cli
from ledger.spec import TIMED_PHASE, Sizes

from repro.service.routing import HashRing
from repro.store.format import write_store

@dataclass
class Run:
    """One invocation's inputs and everything it measured."""

    workload: str
    seed: int
    seconds: float
    traced: bool
    sizes: Sizes
    work: Path
    inject_404: bool = False
    ledger: Ledger = field(init=False)
    counters: layers.Counters = field(default_factory=layers.Counters)
    #: (start, end) ``perf_counter`` pairs of every set-up, of every
    #: healthy → first-map interval, and of every occurrence of a phase.
    setup_spans: list[tuple[float, float]] = field(default_factory=list)
    first_map_spans: list[tuple[float, float]] = field(default_factory=list)
    phase_spans: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    rss_samples: list[float] = field(default_factory=list)
    #: Per-layer values only the workload itself can know.
    extra: dict[str, float] = field(default_factory=dict)
    #: Operations that are not HTTP actions (CLI ingests, restarts).
    other_ops: int = 0
    #: Where the in-process probes find this workload's data.
    probe_store: Path | None = None
    probe_table: object = None
    n_rounds: int = 0

    def __post_init__(self) -> None:
        self.ledger = Ledger(Spans(self.traced))

    @contextmanager
    def phase(self, server: Server, name: str) -> Iterator[None]:
        """Time one phase; on a traced run, bracket it with scrapes."""
        spans = self.ledger.spans
        before = None
        if self.traced and name == TIMED_PHASE[self.workload]:
            with spans.span("metrics.scrape"):
                before = layers.scrape(server.port)
        started = time.perf_counter()
        try:
            with spans.span(f"phase.{name}"):
                yield
        finally:
            self.phase_spans.setdefault(name, []).append(
                (started, time.perf_counter())
            )
            if before is not None:
                with spans.span("metrics.scrape"):
                    self.counters.add(before, layers.scrape(server.port))
                if "http.healthz_rtt_ms" not in self.extra:
                    self.extra["http.healthz_rtt_ms"] = _healthz_rtt_ms(
                        self, server.port
                    )

    def first_map(self, since_action: int, healthy_at: float) -> None:
        """Record healthy → last byte of the first map served after it."""
        for action in self.ledger.actions[since_action:]:
            if action.kind == "open" and action.ok:
                self.first_map_spans.append((healthy_at, action.ended))
                return

    @contextmanager
    def setup(self) -> Iterator[None]:
        """One set-up, with host-speed samples on both sides of it."""
        self.ledger.tick(4)
        started = time.perf_counter()
        yield
        self.setup_spans.append((started, time.perf_counter()))
        self.ledger.tick(4)

    def more_rounds(self, started: float, last_round: float) -> bool:
        """Is there time for another round like the last one?"""
        if self.n_rounds < self.sizes.min_rounds:
            return True
        return time.perf_counter() - started + last_round <= self.seconds


def _partition_rows(n_rows: int, sizes: Sizes) -> int:
    return -(-n_rows // sizes.partitions)


def _build_store(run: Run, table, root: Path) -> None:
    with run.ledger.spans.span("store.write_store"):
        write_store(
            table, root, partition_rows=_partition_rows(table.n_rows, run.sizes)
        )


def _inject_404(run: Run, client: Client) -> None:
    """The test hook: one request that must be counted as failed."""
    if run.inject_404:
        run.inject_404 = False
        client.act("get_map", "GET", "/v1/tables/no-such-table/map", visit_key="404")


def walk_plan(
    run: Run,
    server: Server,
    plan: tuple[data.Walk, ...],
    table_rows: dict[str, int],
    phase: str,
    themes_first: bool,
    sessions: tuple[str, ...] | None = None,
) -> None:
    """One client takes every walk of the plan, in order, as one phase."""
    client = Client(server.port, run.ledger, phase)
    walker = Walker(client, run.ledger, table_rows)
    themed: set[str] = set()
    try:
        with run.phase(server, phase):
            for index, walk in enumerate(plan):
                if themes_first and walk.table not in themed:
                    themed.add(walk.table)
                    walker.themes(walk.table)
                walker.walk(walk, sessions[index] if sessions else f"s{index}")
            _inject_404(run, client)
    finally:
        client.close()


def _first_map_boots(
    run: Run,
    store_argv: list[str],
    plan: tuple[data.Walk, ...],
    table_rows: dict[str, int],
    themes_first: bool,
) -> None:
    """A few more fresh boots that serve one map each: ``first_map_s`` is
    a median, and the timed rounds alone give it three samples."""
    for _ in range(run.sizes.setup_reps):
        server = Server(run.work, store_argv, traced=run.traced)
        try:
            run.ledger.fresh_boot()
            first = len(run.ledger.actions)
            one_open = (data.Walk(plan[0].table, plan[0].theme, ()),)
            walk_plan(run, server, one_open, table_rows, "boot", themes_first)
            run.first_map(first, server.healthy_at)
            run.ledger.tick(4)
        finally:
            server.close()


def _cold_rounds(
    run: Run,
    store_argv: list[str],
    plan: tuple[data.Walk, ...],
    table_rows: dict[str, int],
    themes_first: bool,
) -> None:
    """Fresh boot, whole plan, shut down — until the time is used."""
    started = time.perf_counter()
    last_round = 0.0
    while run.more_rounds(started, last_round):
        round_started = time.perf_counter()
        server = Server(run.work, store_argv, traced=run.traced)
        try:
            run.ledger.fresh_boot()
            first = len(run.ledger.actions)
            walk_plan(run, server, plan, table_rows, "walk", themes_first)
            run.first_map(first, server.healthy_at)
            run.rss_samples.append(server.rss_peak_mb())
        finally:
            server.close()
        run.n_rounds += 1
        last_round = time.perf_counter() - round_started


def _time_datagen(run: Run, started: float) -> None:
    run.extra["harness.datagen_s"] = time.perf_counter() - started


# ----------------------------------------------------------------------
# explore_cold
# ----------------------------------------------------------------------


def explore_cold(run: Run) -> None:
    """One process, no disk cache, every round a fresh boot: each action
    pays Sample→Count and its store scans."""
    sizes = run.sizes
    started = time.perf_counter()
    table = data.make_table("explore", sizes.explore_rows, run.seed)
    plan = data.make_plan("cold", ("explore",), sizes.explore_paths, run.seed)
    _time_datagen(run, started)

    root = run.work / "explore"
    for _ in range(sizes.setup_reps):
        shutil.rmtree(root, ignore_errors=True)
        with run.setup():
            _build_store(run, table, root)
            Server(run.work, [str(root)], traced=run.traced).close()
    run.probe_store, run.probe_table = root, table

    table_rows = {"explore": table.n_rows}
    _cold_rounds(run, [str(root)], plan, table_rows, themes_first=True)
    _first_map_boots(run, [str(root)], plan, table_rows, themes_first=True)


# ----------------------------------------------------------------------
# revisit_warm
# ----------------------------------------------------------------------


def revisit_warm(run: Run) -> None:
    """One process, everything already in L1: two clients replay the fill
    pass, and only the service stack works."""
    sizes = run.sizes
    started = time.perf_counter()
    table = data.make_table("revisit", sizes.revisit_rows, run.seed)
    plan = data.make_plan("warm", ("revisit",), sizes.revisit_paths, run.seed)
    _time_datagen(run, started)
    table_rows = {"revisit": table.n_rows}

    root = run.work / "revisit"
    server = None
    try:
        for _ in range(sizes.setup_reps):
            if server is not None:
                server.close()
            shutil.rmtree(root, ignore_errors=True)
            first = len(run.ledger.actions)
            with run.setup():
                _build_store(run, table, root)
                server = Server(run.work, [str(root)], traced=run.traced)
                run.ledger.fresh_boot()
                walk_plan(run, server, plan, table_rows, "fill", themes_first=True)
            run.first_map(first, server.healthy_at)
        run.probe_store, run.probe_table = root, table

        deadline = time.perf_counter() + run.seconds

        def replay(thread: int) -> None:
            client = Client(server.port, run.ledger, "replay")
            walker = Walker(client, run.ledger, table_rows)
            offset = thread * len(plan) // 2
            count = 0
            try:
                while time.perf_counter() < deadline:
                    walk = plan[(offset + count) % len(plan)]
                    if not walker.walk(walk, session=f"w{thread}-{count}"):
                        break
                    count += 1
                if thread == 0:
                    _inject_404(run, client)
            finally:
                client.close()

        threads = [threading.Thread(target=replay, args=(t,)) for t in range(2)]
        with run.phase(server, "replay"):
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        run.n_rounds = 1
        run.rss_samples.append(server.rss_peak_mb())
    finally:
        if server is not None:
            server.close()

    _first_map_boots(run, [str(root)], plan, table_rows, themes_first=True)


# ----------------------------------------------------------------------
# fleet_rewarm
# ----------------------------------------------------------------------


def _fleet_sessions(plan: tuple[data.Walk, ...], tables: dict) -> tuple[str, ...]:
    """Session ids that fix where each walk lands.

    The proxy routes ``…/themes`` by table fingerprint and session
    commands by session id.  Only the worker that served ``…/themes``
    keeps a table's themes, so an ``open`` landing on the other worker
    extracts them again (~20x the time).  Left to chance, the share of
    such opens — and with it p90 — would change with the seed; here
    every table's walks alternate between its owner and the other
    worker, the first one on the owner.
    """
    ring = HashRing(range(2))
    seen: dict[str, int] = {}
    sessions = []
    for walk in plan:
        nth = seen.get(walk.table, 0)
        seen[walk.table] = nth + 1
        owner = ring.owner(f"table:{tables[walk.table].fingerprint()}")
        wanted = owner if nth % 2 == 0 else 1 - owner
        sessions.append(
            next(
                name
                for name in (f"{walk.table}-{nth}-{n}" for n in range(1000))
                if ring.owner(f"session:{name}") == wanted
            )
        )
    return tuple(sessions)


def fleet_rewarm(run: Run) -> None:
    """Two workers over a shared disk cache: a cold fill writes L2, then
    every round restarts both workers and replays from L2."""
    sizes = run.sizes
    started = time.perf_counter()
    names = tuple(f"fleet{index}" for index in range(sizes.fleet_tables))
    tables = [
        data.make_table(name, sizes.fleet_rows, run.seed + 7919 * index)
        for index, name in enumerate(names)
    ]
    plan = data.make_plan("warm", names, sizes.fleet_paths_per_table, run.seed)
    sessions = _fleet_sessions(plan, dict(zip(names, tables)))
    _time_datagen(run, started)
    table_rows = {name: sizes.fleet_rows for name in names}

    roots = [run.work / name for name in names]
    cache = run.work / "cache"
    server = None
    try:
        for _ in range(sizes.setup_reps):
            if server is not None:
                server.close()
            for stale in (cache, *roots):
                shutil.rmtree(stale, ignore_errors=True)
            with run.setup():
                for table, root in zip(tables, roots):
                    _build_store(run, table, root)
                server = Server(
                    run.work,
                    ["--workers", "2", "--cache-dir", str(cache), *map(str, roots)],
                    traced=run.traced,
                    fleet=True,
                )
        run.probe_store, run.probe_table = roots[0], tables[0]

        run.ledger.fresh_boot()
        walk_plan(run, server, plan, table_rows, "fill", True, sessions)
        ((fill_started, fill_ended),) = run.phase_spans["fill"]
        run.extra["fleet.fill_actions_per_s"] = len(run.ledger.timed("fill")) / (
            fill_ended - fill_started
        )

        started = time.perf_counter()
        last_round = 0.0
        restart_seconds: list[float] = []
        control = Client(server.port, run.ledger, "control")
        while run.more_rounds(started, last_round):
            round_started = time.perf_counter()
            for slot in range(2):
                with run.ledger.spans.span("supervisor.restart"):
                    status, body, seconds = control.raw(
                        "POST", f"/v1/workers/{slot}/restart"
                    )
                run.other_ops += 1
                if status != 200:
                    run.ledger.fail(
                        f"restart of slot {slot} -> {status} {body[:120]!r}"
                    )
                restart_seconds.append(seconds)
            healthy_at = server.await_healthy()
            run.ledger.fresh_boot()
            first = len(run.ledger.actions)
            walk_plan(run, server, plan, table_rows, "rewarm", True, sessions)
            run.first_map(first, healthy_at)
            run.n_rounds += 1
            last_round = time.perf_counter() - round_started
        control.close()
        run.extra["supervisor.restart_s"] = sum(restart_seconds) / len(restart_seconds)
        run.rss_samples.append(server.rss_peak_mb())
        if run.traced:
            run.extra["supervisor.proxy_hop_ms"] = _proxy_hop_ms(run, server, names[0])
    finally:
        if server is not None:
            server.close()


# ----------------------------------------------------------------------
# onboard_csv
# ----------------------------------------------------------------------


def onboard_csv(run: Run) -> None:
    """CSV in, store out, then a script-style client that never asks for
    themes: every session's ``open`` extracts them again."""
    sizes = run.sizes
    started = time.perf_counter()
    n_rows = sizes.onboard_rows + sizes.append_rows
    table = data.make_table("onboard", n_rows, run.seed)
    base_csv = run.work / "onboard.csv"
    append_csv = run.work / "onboard-more.csv"
    data.write_csv(table, base_csv, 0, sizes.onboard_rows)
    data.write_csv(table, append_csv, sizes.onboard_rows, n_rows)
    plan = data.make_plan("cold", ("onboard",), sizes.onboard_paths, run.seed)
    _time_datagen(run, started)

    root = run.work / "onboard"
    ingest_rates: list[float] = []
    for _ in range(sizes.setup_reps):
        shutil.rmtree(root, ignore_errors=True)
        with run.setup():
            with run.ledger.spans.span("cli.ingest"):
                seconds = run_cli(
                    run.work,
                    "ingest",
                    str(base_csv),
                    str(root),
                    "--name",
                    "onboard",
                    "--partition-rows",
                    str(_partition_rows(sizes.onboard_rows, sizes)),
                )
            ingest_rates.append(sizes.onboard_rows / seconds)
            with run.ledger.spans.span("cli.append"):
                run_cli(run.work, "ingest", "--append", str(append_csv), str(root))
            run.other_ops += 2
            Server(run.work, [str(root)], traced=run.traced).close()
    ingest_rates.sort()
    run.extra["ingest.cli_rows_per_s"] = ingest_rates[len(ingest_rates) // 2]
    run.probe_store, run.probe_table = root, table

    table_rows = {"onboard": n_rows}
    _cold_rounds(run, [str(root)], plan, table_rows, themes_first=False)
    _first_map_boots(run, [str(root)], plan, table_rows, themes_first=False)


WORKLOADS = {
    "explore_cold": explore_cold,
    "revisit_warm": revisit_warm,
    "fleet_rewarm": fleet_rewarm,
    "onboard_csv": onboard_csv,
}


# ----------------------------------------------------------------------
# Probes that need the workload's live servers (traced runs only)
# ----------------------------------------------------------------------


def _healthz_rtt_ms(run: Run, port: int, n: int = 100) -> float:
    client = Client(port, run.ledger, "probe")
    try:
        with run.ledger.spans.span("probe.healthz"):
            samples = sorted(client.raw("GET", "/healthz")[2] for _ in range(n))
    finally:
        client.close()
    return 1000.0 * samples[len(samples) // 2]


def _proxy_hop_ms(run: Run, server: Server, table: str, n: int = 60) -> float:
    """The same warm request through the proxy and straight to the worker
    that owns the table: the difference of the two medians."""
    path = f"/v1/tables/{table}/themes"
    medians = []
    ports = [server.port] + [w["port"] for w in server.workers() if w.get("port")]
    for port in ports:
        client = Client(port, run.ledger, "probe")
        try:
            with run.ledger.spans.span("probe.proxy_hop"):
                client.raw("GET", path)  # make sure it is warm on this worker
                samples = sorted(client.raw("GET", path)[2] for _ in range(n))
        finally:
            client.close()
        medians.append(samples[len(samples) // 2])
    # The owning worker answers fastest directly; the others pay nothing
    # the proxy path pays, so the smallest direct median is the baseline.
    return 1000.0 * (medians[0] - min(medians[1:]))
