#!/usr/bin/env python3
"""The navigation-latency ledger — one command, every metric by name.

    python3 benchmarks/e2e/run.py --workload explore_cold
    python3 benchmarks/e2e/run.py --workload fleet_rewarm --trace 1
    python3 benchmarks/e2e/run.py --selfcheck 6

Generates its data from ``--seed``, boots real ``python -m repro serve``
processes, drives them over keep-alive HTTP in a closed loop for
``--seconds``, checks every map against a digest oracle, prints a table
of metrics and — as the last line of stdout — one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

E2E_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(E2E_DIR))

from ledger import procs, spec  # noqa: E402 - needs the path line above

sys.path.insert(0, str(procs.SRC_DIR))

GOLDEN_PATH = E2E_DIR / "golden_digests.json"


def _timed(run) -> list:
    """The timed rounds' successful actions."""
    return [a for a in run.ledger.timed(spec.TIMED_PHASE[run.workload]) if a.ok]


def _navigation(run) -> list:
    """The timed navigation actions.  ``…/themes`` is asked once per table
    and boot, not per click: it counts toward ``first_map_s`` and
    ``client.themes_p50_ms``, not toward latency."""
    return [a for a in _timed(run) if a.kind != "themes"]


def _rounds(run, phase: str) -> list[tuple[float, float]]:
    """The timed rounds as (start, end) pairs; one long phase (the warm
    replay) is cut into pieces of about 1.5 s, dozens of passes each."""
    spans = run.phase_spans[phase]
    if len(spans) > 1:
        return spans
    ((start, end),) = spans
    pieces = max(3, int((end - start) / 1.5))
    step = (end - start) / pieces
    return [(start + i * step, start + (i + 1) * step) for i in range(pieces)]


def end_to_end(run) -> dict[str, float]:
    """The five numbers a user of the service would see.

    Timings are converted to the reference host speed (see
    ``Ledger.at_reference``): this host runs up to 1.6x slower from one
    minute to the next, and a raw timing would say more about the minute
    than about the program.  Latency and throughput are computed per
    round and reported as the median over rounds, so that a burst of
    interference spoils one round's number and not the run's.
    """
    ledger = run.ledger
    timed = _navigation(run)
    p50s, rates = [], []
    for start, end in _rounds(run, spec.TIMED_PHASE[run.workload]):
        seconds = [
            a.seconds / ledger.slowdown(a.ended)
            for a in timed
            if start <= a.ended < end
        ]
        p50s.append(statistics.median(seconds))
        rates.append(len(seconds) / ledger.at_reference(start, end))
    return {
        "setup_s": statistics.median(
            ledger.at_reference(*span) for span in run.setup_spans
        ),
        "action_p50_ms": 1e3 * statistics.median(p50s),
        "actions_per_s": statistics.median(rates),
        "first_map_s": statistics.median(
            ledger.at_reference(*span) for span in run.first_map_spans
        ),
        "rss_peak_mb": statistics.median(run.rss_samples),
    }


def per_layer(run) -> dict[str, float]:
    """Every per-layer metric; a layer that idled reads 0."""
    from ledger import layers, probes

    timed = _timed(run)
    out = dict.fromkeys((name for name, _, _ in spec.PER_LAYER), 0.0)
    out["client.action_p90_ms"] = 1e3 * statistics.quantiles(
        [a.seconds for a in _navigation(run)], n=10
    )[-1]
    for kind in ("open", "zoom", "project", "highlight", "themes"):
        of_kind = [a.seconds for a in timed if a.kind == kind]
        if of_kind:
            out[f"client.{kind}_p50_ms"] = 1e3 * statistics.median(of_kind)
    out["client.response_bytes_p50"] = float(
        statistics.median(a.n_bytes for a in timed)
    )
    out["client.first_visit_share"] = sum(a.first_visit for a in timed) / len(timed)
    out.update(
        layers.derive(run.counters, len(timed), sum(a.seconds for a in timed))
    )
    out.update(run.extra)
    out["host.slowdown"] = statistics.median(
        seconds / spec.KERNEL_REFERENCE_S for _, seconds in run.ledger.ticks
    )
    out.update(probes.run_probes(run))
    return out


def _platform() -> str:
    """What floating-point results may depend on: the digests are only
    comparable between runs that agree on all of it."""
    import platform

    import numpy

    model = "unknown-cpu"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return (
        f"{platform.machine()} | {model} | python {platform.python_version()} | "
        f"numpy {numpy.__version__}"
    )


def golden_check(run, digests: dict[str, str], record: bool) -> None:
    """Compare the run's map digests with the checked-in ones (default
    seed, same platform): bit-identical maps at a fixed seed are the
    system's strongest promise."""
    from ledger.client import digest

    if run.seed != spec.DEFAULT_SEED:
        return
    summary = digest(sorted(digests.items()))
    golden = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    if record:
        if golden.get("platform") != _platform():
            golden = {"platform": _platform()}
        golden.setdefault(run.sizes.profile, {})[run.workload] = {
            "maps": len(digests),
            "sha256": summary,
        }
        GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
        return
    if golden.get("platform") != _platform():
        print("# golden digests were recorded on another platform; not compared")
        return
    expected = golden.get(run.sizes.profile, {}).get(run.workload)
    if expected is not None and expected["sha256"] != summary:
        run.ledger.fail(
            f"golden digest mismatch: {len(digests)} maps hash to {summary[:12]}, "
            f"golden_digests.json says {expected['sha256'][:12]}"
        )


def write_spans(run) -> Path:
    procs.OUT_DIR.mkdir(exist_ok=True)
    path = procs.OUT_DIR / f"{run.workload}.spans.jsonl"
    with path.open("w", encoding="utf-8") as handle:
        for record in run.ledger.spans.records:
            handle.write(json.dumps(record) + "\n")
    return path


def measure(args: argparse.Namespace) -> dict:
    """Run one workload; returns the result object of the contract."""
    from ledger.workloads import WORKLOADS, Run

    procs.install_cleanup()
    work = procs.make_work_dir()
    try:
        procs.precompile(work)
        run = Run(
            workload=args.workload,
            seed=args.seed,
            seconds=args.seconds,
            traced=bool(args.trace),
            sizes=spec.QUICK if args.quick else spec.FULL,
            work=work,
            inject_404=args.inject_404,
        )
        WORKLOADS[args.workload](run)
        golden_check(run, dict(run.ledger.digests), args.record_golden)
        metrics = per_layer(run) if run.traced else end_to_end(run)
        if run.traced:
            spans_path = write_spans(run)
    finally:
        procs.cleanup()

    ledger = run.ledger
    attempted = len(ledger.actions) + run.other_ops
    failed = min(attempted, len(ledger.failures))
    print(f"# {args.workload}: seed {args.seed}, {run.sizes.profile} sizes, "
          f"{run.n_rounds} timed round(s), {attempted} operations, {failed} failed")
    for note in ledger.failures[:10]:
        print(f"# FAILED: {note}")
    slow = sorted(seconds / spec.KERNEL_REFERENCE_S for _, seconds in ledger.ticks)
    print(f"# host slowdown against the reference speed: median "
          f"{statistics.median(slow):.3f}, deciles {slow[len(slow) // 10]:.3f}"
          f"..{slow[-1 - len(slow) // 10]:.3f} over {len(slow)} samples")
    width = max(map(len, metrics))
    for name, value in metrics.items():
        print(f"{name:<{width}}  {value:>14.6g}  {spec.UNITS[name]}")
    if run.traced:
        print(f"# harness spans -> {spans_path.relative_to(procs.REPO_ROOT)} "
              "(name, count, self seconds):")
        for name, (count, own) in sorted(ledger.spans.self_times().items()):
            print(f"#   {name:<28} {count:>7} {own:>10.3f}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": spec.UNITS[name]}
            for name, value in metrics.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="how long the timed phase measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced servers, harness spans, per-layer metrics")
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--quick", action="store_true",
                        help="smoke sizes (tests); never recorded")
    parser.add_argument("--selfcheck", type=int, metavar="N",
                        help="the noise protocol: N >= 6 passes over every "
                        "workload, alternately into sets A and B")
    parser.add_argument("--record-golden", action="store_true",
                        help="rewrite golden_digests.json for this workload")
    parser.add_argument("--inject-404", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (procs.SRC_DIR / "repro" / "__init__.py").is_file():
        print(f"run.py: no program to measure: {procs.SRC_DIR}/repro is missing",
              file=sys.stderr)
        return 2
    if args.selfcheck is not None:
        from ledger import noise

        return noise.selfcheck(args.selfcheck, args.seed, args.seconds, args.quick)
    if args.workload is None:
        parser.error("--workload is required (or --selfcheck N)")
    result = measure(args)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
