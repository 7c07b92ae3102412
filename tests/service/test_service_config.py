"""Serving options, driven off their declarations.

Every test here iterates :data:`repro.service.config.OPTIONS`, so an
option added to a config dataclass is covered — default, environment,
flag, precedence, malformed input, supervisor → worker hand-off, README
row — without touching this file.
"""

from __future__ import annotations

import argparse
import ast
import re
from pathlib import Path

import pytest

from repro.service.config import (
    OPTIONS,
    Option,
    ServiceConfig,
    add_flags,
    resolve,
    worker_env,
)

ROOT = Path(__file__).resolve().parents[2]
SERVICE_DIR = ROOT / "src" / "repro" / "service"
CLI = ROOT / "src" / "repro" / "cli.py"

WITH_ENV = [option for option in OPTIONS if option.env]
WITH_FLAG = [option for option in OPTIONS if option.flag]

#: Two valid non-default values per kind (``env``, then ``flag``).
SAMPLES = {int: (77, 78), float: (2.5, 7.5), str: ("alpha", "beta")}


def ids(options):
    return [option.path for option in options]


def samples(option: Option) -> tuple[object, object]:
    if option.kind is bool:
        return (not option.default, True)
    return SAMPLES[option.kind]


def parse_flags(argv: list[str]) -> dict[str, object]:
    parser = argparse.ArgumentParser()
    add_flags(parser)
    return vars(parser.parse_args(argv))


def flag_argv(option: Option, value: object) -> list[str]:
    return [option.flag] if option.kind is bool else [option.flag, str(value)]


class TestEveryOption:
    @pytest.mark.parametrize("option", OPTIONS, ids=ids(OPTIONS))
    def test_default(self, option):
        assert option.of(resolve({}, environ={})) == option.of(ServiceConfig())
        if option.path != "pool.max_pending":  # sized to the pool when unset
            assert option.of(ServiceConfig()) == option.default

    @pytest.mark.parametrize("option", WITH_ENV, ids=ids(WITH_ENV))
    def test_env_only(self, option):
        value, _ = samples(option)
        config = resolve(parse_flags([]), environ={option.env: f" {value} "})
        assert option.of(config) == value

    @pytest.mark.parametrize("option", WITH_ENV, ids=ids(WITH_ENV))
    def test_blank_env_is_unset(self, option):
        config = resolve({}, environ={option.env: "  "})
        assert config == ServiceConfig()

    @pytest.mark.parametrize("option", WITH_FLAG, ids=ids(WITH_FLAG))
    def test_flag_only(self, option):
        _, value = samples(option)
        config = resolve(parse_flags(flag_argv(option, value)), environ={})
        assert option.of(config) == value

    @pytest.mark.parametrize(
        "option",
        [option for option in WITH_FLAG if option.env],
        ids=ids(option for option in WITH_FLAG if option.env),
    )
    def test_flag_over_env(self, option):
        from_env, from_flag = samples(option)
        if option.kind is bool:
            from_env = False  # a boolean flag can only switch on
        config = resolve(
            parse_flags(flag_argv(option, from_flag)),
            environ={option.env: str(from_env)},
        )
        assert option.of(config) == from_flag

    @pytest.mark.parametrize(
        "option",
        [option for option in WITH_ENV if option.kind is not str],
        ids=ids(option for option in WITH_ENV if option.kind is not str),
    )
    def test_malformed_env_names_the_variable(self, option):
        with pytest.raises(ValueError, match=option.env):
            resolve({}, environ={option.env: "many"})

    @pytest.mark.parametrize("option", OPTIONS, ids=ids(OPTIONS))
    def test_a_worker_resolves_what_the_supervisor_resolved(self, option):
        value, _ = samples(option)
        config = resolve({option.path: value}, environ={})
        handed_down = resolve({}, environ=worker_env(config, {}))
        if option.env and option.path != "pool.processes":
            assert handed_down == config
        else:
            # Host, port and the process count describe the fleet's
            # front, not a worker: nothing carries them down.
            assert handed_down == ServiceConfig()


class TestHandOff:
    def test_every_option_at_once_round_trips(self):
        explicit = {
            option.path: samples(option)[0]
            for option in OPTIONS
            if option.env and option.path != "pool.processes"
        }
        config = resolve(explicit, environ={})
        assert resolve({}, environ=worker_env(config, {})) == config

    def test_stale_inherited_values_do_not_leak(self):
        env = worker_env(
            resolve({"pool.processes": 2}, environ={}),
            {"BLAEU_WORKERS": "4", "BLAEU_CACHE_TTL": "9", "PATH": "/bin"},
        )
        assert "BLAEU_WORKERS" not in env  # a worker is one process
        assert "BLAEU_CACHE_TTL" not in env  # resolved to "no expiry"
        assert env["PATH"] == "/bin"
        assert env["BLAEU_THREADS"] == "4"

    def test_one_variable_reaches_front_and_workers_alike(self):
        config = resolve(
            {}, environ={"BLAEU_WORKERS": "2", "BLAEU_DRAIN_TIMEOUT": "10"}
        )
        assert config.pool.processes == 2
        # What Supervisor.restart waits, and what each worker's drain gets.
        assert config.resilience.drain_timeout == 10.0
        assert worker_env(config, {})["BLAEU_DRAIN_TIMEOUT"] == "10.0"

    def test_admission_bound_scales_with_the_pool(self):
        config = resolve(parse_flags(["--threads", "32"]), environ={})
        assert config.pool.max_pending == 128
        # …and reaches the worker as the resolved number.
        assert worker_env(config, {})["BLAEU_MAX_PENDING"] == "128"

    @pytest.mark.parametrize(
        ("explicit", "message"),
        [
            ({"cache.size": 0}, "cache_size"),
            ({"pool.threads": 8, "pool.max_pending": 2}, "max_pending"),
            ({"pool.processes": 0}, "workers"),
            ({"resilience.drain_timeout": -1.0}, "drain_timeout"),
            ({"resilience.request_deadline": 0.0}, "request_deadline"),
        ],
    )
    def test_range_errors_come_from_the_dataclasses(self, explicit, message):
        with pytest.raises(ValueError, match=message):
            resolve(explicit, environ={})


class TestSurfaceIsTheParents:
    def test_the_21_environment_names(self):
        assert {option.env for option in WITH_ENV} == {
            "BLAEU_CACHE_SIZE",
            "BLAEU_CACHE_TTL",
            "BLAEU_CACHE_DIR",
            "BLAEU_CACHE_DISK_BYTES",
            "BLAEU_TRACE",
            "BLAEU_TRACE_BUFFER",
            "BLAEU_SLOW_OP_THRESHOLD",
            "BLAEU_ACCESS_LOG",
            "BLAEU_THREADS",
            "BLAEU_MAX_PENDING",
            "BLAEU_WORKERS",
            "BLAEU_GUIDE_TOP_N",
            "BLAEU_GUIDE_PREFETCH",
            "BLAEU_GUIDE_PREFETCH_JOBS",
            "BLAEU_REQUEST_DEADLINE",
            "BLAEU_DRAIN_TIMEOUT",
            "BLAEU_DEGRADE_WHEN_BUSY",
            "BLAEU_BACKGROUND_DEADLINE",
            "BLAEU_BREAKER_FAILURES",
            "BLAEU_BREAKER_RECOVERY",
            "BLAEU_BREAKER_LATENCY",
        }

    def test_the_17_derived_flags(self):
        assert {option.flag for option in WITH_FLAG} == {
            "--host",
            "--port",
            "--cache-size",
            "--cache-ttl",
            "--workers",
            "--threads",
            "--cache-dir",
            "--cache-disk-bytes",
            "--trace",
            "--trace-buffer",
            "--slow-op-threshold",
            "--access-log",
            "--prefetch",
            "--guide-top-n",
            "--guide-prefetch-jobs",
            "--request-deadline",
            "--drain-timeout",
        }


def _string_literals(path: Path) -> list[str]:
    """Every string constant of a module except its docstrings."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(
            node,
            (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
        ):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
            ):
                docstrings.add(id(body[0].value))
    return [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and id(node) not in docstrings
    ]


class TestOneHomePerConcept:
    #: ``BLAEU_*`` names that are *not* serving options: the slot a
    #: worker is told, and the variable read below the service.
    ALLOWED = {
        "supervisor.py": {"BLAEU_WORKER_SLOT"},
        "cli.py": {"BLAEU_FAULTS"},
    }

    def test_env_names_are_spelled_in_config_only(self):
        offenders = []
        for path in [*sorted(SERVICE_DIR.glob("*.py")), CLI]:
            if path.name == "config.py":
                continue
            for literal in _string_literals(path):
                for name in re.findall(r"BLAEU_[A-Z_]+", literal):
                    if name not in self.ALLOWED.get(path.name, ()):
                        offenders.append(f"{path.name}: {name}")
        assert not offenders, offenders

    def test_the_environment_is_read_in_one_function(self):
        """``resolve`` reads it; the supervisor copies it whole for its
        workers; ``serve`` writes the two below-the-service variables."""
        users = {}
        for path in [*sorted(SERVICE_DIR.glob("*.py")), CLI]:
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for function in ast.walk(tree):
                if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if any(
                        isinstance(node, ast.Attribute)
                        and node.attr == "environ"
                        for node in ast.walk(function)
                    ):
                        users.setdefault(path.name, set()).add(function.name)
        assert users == {
            "config.py": {"resolve"},
            "supervisor.py": {"_spawn"},
            "cli.py": {"serve_main"},
        }

    def test_no_shim_survives_in_the_service(self):
        for path in sorted(SERVICE_DIR.glob("*.py")):
            source = path.read_text(encoding="utf-8")
            for needle in ("redirect_response", "LEGACY_ROUTES"):
                assert needle not in source, (path.name, needle)
            assert not re.search(r"\b307\b", source), path.name
        assert not (SERVICE_DIR / "metrics.py").exists()


def readme_row(option: Option) -> str:
    def cell(value: object) -> str:
        return "—" if value is None else f"`{value}`"

    return (
        f"| {cell(option.flag)} | {cell(option.env)} "
        f"| {cell(option.default)} | {option.help} |"
    )


class TestReadme:
    @pytest.mark.parametrize("option", OPTIONS, ids=ids(OPTIONS))
    def test_options_table_matches_the_declarations(self, option):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        assert readme_row(option) in readme

    def test_options_table_has_no_extra_rows(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        rows = re.findall(r"^\| (?:`--[a-z-]+`|—) \| .*\|$", readme, re.M)
        assert len(rows) == len(OPTIONS)
