"""The noise protocol: is this benchmark steadier than its own bounds?

``run.py --selfcheck N`` makes N passes over every workload, each pass
with another seed and each run a fresh ``run.py`` process (what the
driver does), alternately into sets A and B.  Per workload and metric it
prints both medians, their relative gap, the interquartile spread of all
N values as a share of their median, and the bound from
``BENCHMARK.json``.  A gap or spread above half the bound means the
metric needs more work per run or a wider bound.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time

from ledger import procs, spec


def _one_run(workload: str, seed: int, seconds: float, quick: bool) -> dict:
    command = [
        sys.executable,
        str(procs.E2E_DIR / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    if quick:
        command.append("--quick")
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {done.returncode}:\n"
            f"{done.stdout[-2000:]}\n{done.stderr[-2000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (the driver's rule)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def selfcheck(n_passes: int, base_seed: int, seconds: float, quick: bool) -> int:
    if n_passes < 6:
        print("--selfcheck needs at least 6 passes", file=sys.stderr)
        return 2
    bench = json.loads((procs.REPO_ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    values: dict[tuple[str, str], list[float]] = {}
    started = time.perf_counter()
    for index in range(n_passes):
        for workload in spec.WORKLOADS:
            result = _one_run(workload, base_seed + 1 + index, seconds, quick)
            if not result["correct"]:
                raise RuntimeError(f"{workload} pass {index} was not correct")
            for name, metric in result["metrics"].items():
                values.setdefault((workload, name), []).append(metric["value"])
        print(f"# pass {index + 1}/{n_passes} done at "
              f"{time.perf_counter() - started:.0f}s", flush=True)

    report = []
    worst = 0.0
    print(f"{'workload':<13} {'metric':<14} {'median A':>11} {'median B':>11} "
          f"{'gap':>7} {'spread':>7} {'bound':>6}")
    for (workload, name), series in values.items():
        a, b = statistics.median(series[0::2]), statistics.median(series[1::2])
        lower_is_better = bounds[name]["better"] == "lower"
        gap = (b - a) / a if lower_is_better else (a - b) / a
        row = {
            "workload": workload,
            "metric": name,
            "median_a": a,
            "median_b": b,
            "gap": gap,
            "spread": spread(series),
            "bound": bounds[name]["bound"],
            "values": series,
        }
        report.append(row)
        used = max(abs(gap), 0.0 if name == "setup_s" else row["spread"])
        worst = max(worst, used / row["bound"])
        print(f"{workload:<13} {name:<14} {a:>11.5g} {b:>11.5g} "
              f"{gap:>+7.3f} {row['spread']:>7.3f} {row['bound']:>6.2f}")
    procs.OUT_DIR.mkdir(exist_ok=True)
    path = procs.OUT_DIR / "noise.json"
    path.write_text(json.dumps(
        {"passes": n_passes, "seconds": seconds, "base_seed": base_seed,
         "profile": "quick" if quick else "full", "pairs": report},
        indent=1) + "\n")
    print(f"# worst pair uses {worst:.2f} of its bound; "
          f"wrote {path.relative_to(procs.REPO_ROOT)}")
    return 0 if worst <= 1.0 else 1
