"""The ``blaeu`` command line (``python -m repro``).

Without a subcommand it opens the interactive terminal browser,
:class:`~repro.shell.BlaeuShell`, over the given data.  This module's
top imports only the standard library; each subcommand imports what it
runs, so the supervisor behind ``serve --workers N`` loads no engine.

Run with::

    python -m repro <data.csv|store-dir> [more …]
    python -m repro --demo hollywood|countries|lofar
    python -m repro ingest <data.csv> <store-dir> [--name N] \
        [--chunk-rows R] [--delimiter D] [--priority-seed S] \
        [--partition-rows N] [--append]
    python -m repro store repartition <store-dir> [--partition-rows N]
    python -m repro serve [serving options — see serve --help] \
        (<data.csv|store-dir> … | --demo <name>)
    python -m repro trace <http://host:port | spans.jsonl> [--limit N] \
        [--export PATH]
    python -m repro guide (<data.csv|store-dir> … | --demo <name>) \
        [--table T] [--theme T | --columns a,b,c] [--limit N]

``serve`` boots the HTTP service (:mod:`repro.service`) instead of the
interactive shell.  ``ingest`` converts a CSV into an out-of-core store
directory (:mod:`repro.store`) that both the shell and the service can
open in place of a CSV — the rows then stay on disk and exploration
samples them in chunks.

Inside the session, ``help`` lists the shell's commands
(:mod:`repro.shell`).
"""

from __future__ import annotations

import os
import sys
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.core.engine import Blaeu

__all__ = [
    "build_engine",
    "guide_main",
    "ingest_main",
    "main",
    "serve_main",
    "store_main",
    "trace_main",
]

_DEMOS = ("hollywood", "countries", "lofar")


def _theme_ref(word: str) -> str | int:
    return int(word) if word.isdigit() else word


def build_engine(argv: list[str]) -> Blaeu:
    """Construct the engine from CLI arguments (CSV paths or --demo)."""
    from repro.core.config import BlaeuConfig
    from repro.core.engine import Blaeu

    engine = Blaeu(BlaeuConfig())
    if argv and argv[0] == "--demo":
        if len(argv) < 2 or argv[1] not in _DEMOS:
            raise SystemExit(f"usage: python -m repro --demo {{{'|'.join(_DEMOS)}}}")
        name = argv[1]
        if name == "hollywood":
            from repro.datasets import hollywood

            engine.register(hollywood())
        elif name == "countries":
            from repro.datasets import oecd

            engine.register(oecd())
        else:
            from repro.datasets import lofar

            engine.register(lofar(n_rows=50_000))
        return engine
    from pathlib import Path

    usage = (
        "usage: python -m repro <data.csv|store-dir> [more …] "
        f"| --demo {{{'|'.join(_DEMOS)}}}"
    )
    if not argv:
        raise SystemExit(usage)
    missing = next((path for path in argv if not Path(path).exists()), None)
    if missing is not None:
        # Not a subcommand, not --demo, not data: a typo, not a traceback.
        print(f"{usage} (no such file: {missing!r})", file=sys.stderr)
        raise SystemExit(2)

    from repro.store import MANIFEST_NAME

    for path in argv:
        candidate = Path(path)
        if candidate.is_dir() and (candidate / MANIFEST_NAME).is_file():
            engine.load_store(candidate)
        else:
            engine.load_csv(path)
    return engine


def ingest_main(argv: list[str]) -> None:
    """The ``ingest`` subcommand: CSV → out-of-core store directory."""
    import argparse

    from repro.store import DEFAULT_CHUNK_ROWS, ingest_csv

    parser = argparse.ArgumentParser(
        prog="blaeu ingest",
        description=(
            "Convert a CSV into a columnar store directory that "
            "'python -m repro' and 'python -m repro serve' open in "
            "place of the CSV, keeping the rows on disk."
        ),
    )
    parser.add_argument("csv", help="source CSV file (read once, chunked)")
    parser.add_argument("out", help="target store directory (created)")
    parser.add_argument(
        "--name", default=None, help="table name (default: the file stem)"
    )
    parser.add_argument(
        "--delimiter", default=",", help="field separator (default ',')"
    )
    parser.add_argument(
        "--chunk-rows",
        type=int,
        default=DEFAULT_CHUNK_ROWS,
        help="records per ingestion chunk — the peak-memory bound "
        "(default %(default)s)",
    )
    parser.add_argument(
        "--priority-seed",
        type=int,
        default=0,
        help="seed of the persisted multi-scale sampling priorities "
        "(default %(default)s)",
    )
    parser.add_argument(
        "--partition-rows",
        type=int,
        default=None,
        metavar="N",
        help="rows per zone-mapped partition (default: the format "
        "default; with --append, the store's current granularity)",
    )
    parser.add_argument(
        "--append",
        action="store_true",
        help="append the CSV's rows to an existing store at OUT instead "
        "of creating one (columns must match; the manifest records the "
        "previous fingerprint and bumps its version)",
    )
    args = parser.parse_args(argv)
    try:
        if args.append:
            from repro.store.ingest import append_csv

            table = append_csv(
                args.csv,
                args.out,
                delimiter=args.delimiter,
                chunk_rows=args.chunk_rows,
                partition_rows=args.partition_rows,
            )
        else:
            from repro.store.format import DEFAULT_PARTITION_ROWS

            table = ingest_csv(
                args.csv,
                args.out,
                name=args.name,
                delimiter=args.delimiter,
                chunk_rows=args.chunk_rows,
                priority_seed=args.priority_seed,
                partition_rows=args.partition_rows or DEFAULT_PARTITION_ROWS,
            )
    except (OSError, ValueError) as error:
        raise SystemExit(f"ingest failed: {error}") from None
    verb = "appended; now" if args.append else "ingested"
    print(
        f"{verb} {table.n_rows} rows x {table.n_columns} columns "
        f"in {args.out} (table {table.name!r}, "
        f"{len(table.partitions)} partitions, "
        f"fingerprint {table.fingerprint()[:12]}…)"
    )


def store_main(argv: list[str]) -> None:
    """The ``store`` subcommand: maintenance of store directories."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="blaeu store",
        description="Maintenance commands for columnar store directories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    repart = sub.add_parser(
        "repartition",
        help="rebuild a store's partitions and zone maps (manifest "
        "only; data files are untouched)",
        description=(
            "Derive fresh range partitions with per-column zone maps "
            "from a store's column files and rewrite its manifest. "
            "Adds zone maps to stores written before partitioning "
            "existed, or changes the range size of current ones."
        ),
    )
    repart.add_argument("store", help="store directory (holds manifest.json)")
    repart.add_argument(
        "--partition-rows",
        type=int,
        default=None,
        metavar="N",
        help="rows per partition (default: keep the store's current "
        "granularity, or the format default when it has none)",
    )
    args = parser.parse_args(argv)
    from repro.store.partitions import repartition

    try:
        manifest = repartition(args.store, partition_rows=args.partition_rows)
    except (OSError, ValueError) as error:
        raise SystemExit(f"repartition failed: {error}") from None
    print(
        f"repartitioned {args.store}: {manifest.n_rows} rows in "
        f"{len(manifest.partitions)} partitions "
        f"(table {manifest.table!r})"
    )


def guide_main(argv: list[str]) -> None:
    """The ``guide`` subcommand: ranked next actions, one shot.

    Prints what :meth:`Explorer.suggest` would recommend — which theme
    to open (default), or, given ``--theme``/``--columns``, which
    zoom / projection / re-clustering of that map to try next.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="blaeu guide",
        description=(
            "Rank the suggested next exploration actions for a table "
            "(guided exploration, see repro.guide)."
        ),
    )
    parser.add_argument(
        "data", nargs="*", help="CSV files or store directories to register"
    )
    parser.add_argument(
        "--demo", choices=_DEMOS, help="use a bundled demo dataset"
    )
    parser.add_argument(
        "--table",
        default=None,
        help="table to guide (default: the only registered table)",
    )
    parser.add_argument(
        "--theme",
        default=None,
        help="suggest follow-ups of this theme's map (name or index)",
    )
    parser.add_argument(
        "--columns",
        default=None,
        metavar="A,B,C",
        help="suggest follow-ups of the map over these columns",
    )
    parser.add_argument(
        "--limit",
        type=int,
        default=5,
        help="suggestions to show (default %(default)s)",
    )
    args = parser.parse_args(argv)
    if args.demo and args.data:
        parser.error("give either data files or --demo, not both")
    if args.theme and args.columns:
        parser.error("give either --theme or --columns, not both")
    if args.limit < 1:
        parser.error("--limit must be at least 1")
    engine_argv = ["--demo", args.demo] if args.demo else list(args.data)
    if not engine_argv:
        parser.error("provide data files or --demo <name>")
    engine = build_engine(engine_argv)
    tables = engine.tables()
    table = args.table or (tables[0] if len(tables) == 1 else None)
    if table is None:
        parser.error(f"--table is required (registered: {list(tables)})")
    if table not in tables:
        raise SystemExit(f"no table {table!r}; registered: {list(tables)}")
    explorer = engine.explore(table)
    try:
        if args.columns:
            columns = tuple(
                name.strip() for name in args.columns.split(",") if name.strip()
            )
            explorer.open_columns(columns)
        elif args.theme is not None:
            explorer.open_theme(_theme_ref(args.theme))
    except (KeyError, ValueError) as error:
        raise SystemExit(f"guide failed: {error}") from None
    suggestions = explorer.suggest(limit=args.limit)
    if not suggestions:
        print("no suggestions for this state")
        return
    print(f"suggested next actions for {table!r}:")
    for index, suggestion in enumerate(suggestions, start=1):
        print(f" {index}. {suggestion.describe()}")


def serve_main(argv: list[str]) -> None:
    """The ``serve`` subcommand: boot the HTTP service over the data.

    Serving options come from :mod:`repro.service.config`: each is
    declared there once, with its flag and its ``BLAEU_*`` override
    (explicit flag > environment > default).
    """
    import argparse

    from repro.service import config as options

    parser = argparse.ArgumentParser(
        prog="blaeu serve",
        description="Serve Blaeu's protocol commands over HTTP.",
    )
    parser.add_argument("data", nargs="*", help="CSV files to register")
    parser.add_argument(
        "--demo", choices=_DEMOS, help="serve a bundled demo dataset"
    )
    options.add_flags(parser)
    parser.add_argument(
        "--port-file",
        default=None,
        help=argparse.SUPPRESS,  # supervisor-internal port announcement
    )
    parser.add_argument(
        "--faults",
        default=None,
        metavar="JSON",
        help='fault-injection spec ({"seed": N, "faults": [...]} JSON) '
        "exported as BLAEU_FAULTS to every worker — chaos testing only",
    )
    args = parser.parse_args(argv)
    if args.demo and args.data:
        parser.error("give either CSV files or --demo, not both")
    if args.demo:
        sources = ["--demo", args.demo]
    elif args.data:
        sources = list(args.data)
    else:
        parser.error("provide CSV files or --demo <name>")
    try:
        config = options.resolve(vars(args))
    except ValueError as error:
        parser.error(str(error))

    # Read below the service (at the fault points), so it travels as an
    # environment variable that supervisor workers inherit.
    if args.faults is not None:
        from repro.resilience.faults import FAULTS_ENV, parse_faults

        try:
            parse_faults(args.faults)
        except ValueError as error:
            parser.error(f"--faults: {error}")
        os.environ[FAULTS_ENV] = args.faults

    if config.pool.processes > 1:
        # Multi-process mode: N spawned single-process services behind
        # a routing front, sharing one artifact-cache directory so warm
        # work crosses process (and restart) boundaries.
        from repro.service.supervisor import Supervisor

        Supervisor(config, sources).run()
        return

    from repro.service.app import BlaeuService

    BlaeuService(build_engine(sources), config).run(port_file=args.port_file)


def _group_span_dicts(
    spans: list[dict], limit: int
) -> list[dict[str, object]]:
    """Group exported span dicts into traces, newest first.

    Mirrors :meth:`repro.obs.trace.Tracer.traces` for spans re-read
    from a JSONL export (where only the dict form survives).
    """
    grouped: dict[str, list[dict]] = {}
    order: list[str] = []
    for span in spans:
        trace_id = str(span.get("trace_id", "?"))
        if trace_id not in grouped:
            grouped[trace_id] = []
            order.append(trace_id)
        grouped[trace_id].append(span)
    return [
        {
            "trace_id": trace_id,
            "spans": sorted(
                grouped[trace_id], key=lambda s: s.get("offset", 0.0)
            ),
        }
        for trace_id in reversed(order[-limit:])
    ]


def trace_main(argv: list[str]) -> None:
    """The ``trace`` subcommand: render recent traces as text trees."""
    import argparse
    import json

    from repro.obs.trace import render_trace

    parser = argparse.ArgumentParser(
        prog="blaeu trace",
        description=(
            "Fetch recent traces from a running service's /v1/traces "
            "endpoint (give its base URL) or re-read a JSONL span "
            "export, and print each trace as a tree with the slowest "
            "span marked."
        ),
    )
    parser.add_argument(
        "source",
        help="service base URL (e.g. http://127.0.0.1:8787) or a "
        "spans .jsonl file",
    )
    parser.add_argument(
        "--limit",
        type=int,
        default=5,
        help="most recent traces to show (default %(default)s)",
    )
    parser.add_argument(
        "--export",
        metavar="PATH",
        default=None,
        help="also write the shown spans as JSONL to PATH",
    )
    args = parser.parse_args(argv)
    if args.limit < 1:
        parser.error("--limit must be at least 1")
    if args.source.startswith(("http://", "https://")):
        from urllib.error import URLError
        from urllib.request import urlopen

        url = args.source.rstrip("/") + f"/v1/traces?limit={args.limit}"
        try:
            with urlopen(url) as response:
                payload = json.loads(response.read().decode("utf-8"))
        except (URLError, OSError, ValueError) as error:
            raise SystemExit(f"trace fetch failed: {error}") from None
        traces = payload.get("traces", [])
        if not traces and not payload.get("enabled", True):
            raise SystemExit(
                "tracing is disabled on that service; "
                "restart it with 'blaeu serve --trace'"
            )
    else:
        try:
            with open(args.source, encoding="utf-8") as handle:
                spans = [
                    json.loads(line) for line in handle if line.strip()
                ]
        except (OSError, ValueError) as error:
            raise SystemExit(f"could not read spans: {error}") from None
        traces = _group_span_dicts(spans, args.limit)
    if args.export:
        with open(args.export, "w", encoding="utf-8") as handle:
            for trace in traces:
                for span in trace.get("spans", []):
                    handle.write(json.dumps(span) + "\n")
    if not traces:
        print("no traces retained")
        return
    for trace in traces:
        print(render_trace(trace))
        print()


def main(argv: list[str] | None = None) -> None:
    """Entry point for ``python -m repro``."""
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "serve":
        serve_main(argv[1:])
        return
    if argv and argv[0] == "ingest":
        ingest_main(argv[1:])
        return
    if argv and argv[0] == "store":
        store_main(argv[1:])
        return
    if argv and argv[0] == "trace":
        trace_main(argv[1:])
        return
    if argv and argv[0] == "guide":
        guide_main(argv[1:])
        return
    from repro.shell import BlaeuShell

    engine = build_engine(argv)
    shell = BlaeuShell(engine)
    print("blaeu — type 'help' for commands, 'quit' to leave")
    try:
        while True:
            line = input("blaeu> ")
            if not shell.handle(line):
                break
    except (EOFError, KeyboardInterrupt):
        print()
