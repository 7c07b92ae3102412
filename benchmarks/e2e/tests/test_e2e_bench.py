"""The ledger's own contract, checked at the ``--quick`` size.

Three quick runs start together when the first test needs one (two
cores, about ten seconds) and every test reads from them; nothing here
is ever recorded as a measurement.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

E2E_DIR = Path(__file__).resolve().parents[1]
REPO_ROOT = E2E_DIR.parents[1]
RUN = E2E_DIR / "run.py"

sys.path.insert(0, str(E2E_DIR))
sys.path.insert(0, str(REPO_ROOT / "src"))

from ledger import data, spec  # noqa: E402 - needs the path line above

BENCHMARK = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())

QUICK_RUNS = {
    "explore_traced_404": ["--workload", "explore_cold", "--trace", "1", "--inject-404"],
    "revisit_traced": ["--workload", "revisit_warm", "--trace", "1"],
    "fleet_untraced": ["--workload", "fleet_rewarm", "--trace", "0"],
}


def _processes_mentioning(text: str) -> list[str]:
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            command = (entry / "cmdline").read_bytes().replace(b"\0", b" ").decode()
        except OSError:
            continue  # it exited while we looked
        if text in command:
            found.append(command)
    return found


@pytest.fixture(scope="module")
def quick_runs() -> dict[str, dict]:
    started = {
        name: subprocess.Popen(
            [sys.executable, str(RUN), "--quick", "--seconds", "1", "--seed", "7", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for name, argv in QUICK_RUNS.items()
    }
    results = {}
    for name, process in started.items():
        stdout, stderr = process.communicate(timeout=300)
        lines = stdout.strip().splitlines()
        assert lines, f"{name} printed nothing; stderr: {stderr[-2000:]}"
        results[name] = {
            "pid": process.pid,
            "returncode": process.returncode,
            "stdout": stdout,
            "result": json.loads(lines[-1]),
        }
    return results


def test_benchmark_json_names_match_the_spec():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(spec.WORKLOADS)
    for section, expected in (
        ("end_to_end", spec.END_TO_END),
        ("per_layer", spec.PER_LAYER),
    ):
        listed = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK[section]]
        assert listed == list(expected)
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]
    assert BENCHMARK["command"] == ["python3", "benchmarks/e2e/run.py"]


def test_bounds_stay_in_range():
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert all(0.05 <= bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_printed_metrics_are_the_declared_ones(quick_runs):
    end_to_end = [m["name"] for m in BENCHMARK["end_to_end"]]
    per_layer = [m["name"] for m in BENCHMARK["per_layer"]]
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    for name, expected in (
        ("fleet_untraced", end_to_end),
        ("revisit_traced", per_layer),
        ("explore_traced_404", per_layer),
    ):
        run = quick_runs[name]
        metrics = run["result"]["metrics"]
        assert list(metrics) == expected
        assert set(run["result"]) == {"correct", "attempted", "failed", "metrics"}
        for metric, body in metrics.items():
            assert body["unit"] == units[metric]
            # ... and the table above the JSON line names each one too.
            assert f"\n{metric} " in "\n" + run["stdout"]
    for value in quick_runs["fleet_untraced"]["result"]["metrics"].values():
        assert value["value"] > 0


def test_clean_runs_are_correct(quick_runs):
    for name in ("revisit_traced", "fleet_untraced"):
        run = quick_runs[name]
        assert run["returncode"] == 0, run["stdout"]
        assert run["result"]["correct"] is True
        assert run["result"]["failed"] == 0
        assert run["result"]["attempted"] >= 1


def test_an_injected_404_is_a_failed_operation(quick_runs):
    run = quick_runs["explore_traced_404"]
    assert run["result"]["failed"] == 1
    assert run["result"]["correct"] is False
    assert run["returncode"] == 1


def test_layers_idle_where_the_workload_says_they_do(quick_runs):
    explore = quick_runs["explore_traced_404"]["result"]["metrics"]
    assert explore["client.first_visit_share"]["value"] >= 0.85
    assert explore["pipeline.builds"]["value"] > 0
    revisit = quick_runs["revisit_traced"]["result"]["metrics"]
    assert revisit["pipeline.builds"]["value"] == 0
    assert revisit["cache.l1_hit_share"]["value"] == 1.0
    assert revisit["pool.rejected"]["value"] == 0
    assert revisit["app.degraded"]["value"] == 0


def test_no_child_outlives_its_run(quick_runs):
    for run in quick_runs.values():
        marker = f"run-{run['pid']}-"
        assert _processes_mentioning(marker) == []
        assert not list((E2E_DIR / "work").glob(marker + "*"))


def test_walk_plan_is_a_function_of_the_seed():
    tables = ("t0", "t1")
    for kind in ("cold", "warm"):
        assert data.make_plan(kind, tables, 3, 11) == data.make_plan(kind, tables, 3, 11)
        assert data.make_plan(kind, tables, 3, 11) != data.make_plan(kind, tables, 3, 12)


def test_cold_walk_mix():
    plan = data.make_plan("cold", ("t",), 6, 3)
    kinds = [step.kind for walk in plan for step in walk.steps]
    assert (kinds.count("zoom"), kinds.count("project"), kinds.count("highlight")) == (
        3 * len(plan),
        2 * len(plan),
        2 * len(plan),
    )


def test_table_is_a_function_of_the_seed():
    one, again, other = (data.make_table("t", 5000, s) for s in (5, 5, 6))
    assert one.fingerprint() == again.fingerprint() != other.fingerprint()
    assert one.column_names == data.COLUMNS


def test_without_the_program_it_refuses_quickly(tmp_path):
    shutil.copytree(E2E_DIR, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("work", "out", "__pycache__"))
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "explore_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
