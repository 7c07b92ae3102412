"""Import hygiene: every process loads only the code it runs.

The static half reads the source with the stdlib ``ast`` module: every
import names a declared dependency, no module-level import goes unused
(the local stand-in for ruff's F401) and the store layer never reaches
up into the serving layer.  The dynamic half runs fresh interpreters:
``import repro``, the CLI and the supervisor load no engine and no
NumPy, importing every module loads no undeclared package, and a
worker imports nothing new while it serves and never a process pool.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Third-party packages ``src/`` may import: the one declared dependency.
SRC_ALLOWED = {"numpy", "repro"}
#: What tests, the benchmark harness and the examples may add to that:
#: the test runners and the harness's own package.
HARNESS_ALLOWED = SRC_ALLOWED | {"pytest", "hypothesis", "ledger"}

#: The engine's packages, which no thin entry point may load.
ENGINE_PACKAGES = ("core", "graph", "cluster", "tree", "table", "store")

#: The supervisor's whole ``repro`` closure: a stdlib-only proxy.
SUPERVISOR_CLOSURE = {
    "repro",
    "repro.resilience",
    "repro.resilience.retry",
    "repro.server",
    "repro.server.protocol",
    "repro.service",
    "repro.service.config",
    "repro.service.http",
    "repro.service.routes",
    "repro.service.routing",
    "repro.service.supervisor",
}


def _python_files(*roots: Path) -> list[Path]:
    return sorted(
        path
        for root in roots
        for path in root.rglob("*.py")
        if "__pycache__" not in path.parts
    )


def _imported_modules(tree: ast.Module) -> set[str]:
    """Every module ``tree`` imports by absolute name."""
    modules: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module)
    return modules - {"__future__"}


def _undeclared(paths: list[Path], allowed: set[str]) -> list[str]:
    found = []
    for path in paths:
        tree = ast.parse(path.read_text())
        roots = {module.split(".")[0] for module in _imported_modules(tree)}
        found += [
            f"{path.relative_to(ROOT)}: {name}"
            for name in sorted(roots)
            if name not in sys.stdlib_module_names and name not in allowed
        ]
    return found


def _is_type_checking(node: ast.If) -> bool:
    test = node.test
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _module_imports(tree: ast.Module) -> dict[str, int]:
    """Names bound by module-level imports (outside ``TYPE_CHECKING``),
    with the line binding each.
    """
    bound: dict[str, int] = {}
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, ast.If) and not _is_type_checking(node):
            pending += node.body + node.orelse
        elif isinstance(node, ast.Try):
            pending += node.body + node.orelse + node.finalbody
            pending += [stmt for handler in node.handlers for stmt in handler.body]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _annotation_names(annotation: ast.expr) -> set[str]:
    """Names an annotation uses, including inside string annotations."""
    names: set[str] = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names |= _annotation_names(parsed.body)
    return names


def _used_names(tree: ast.Module) -> set[str]:
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            every = [
                *arguments.posonlyargs,
                *arguments.args,
                *arguments.kwonlyargs,
                *filter(None, (arguments.vararg, arguments.kwarg)),
            ]
            annotations = [arg.annotation for arg in every] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for annotation in filter(None, annotations):
            used |= _annotation_names(annotation)
    return used


def _exported(tree: ast.Module) -> set[str]:
    """The string literals of a module-level ``__all__``."""
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets
            )
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            return {
                element.value
                for element in node.value.elts
                if isinstance(element, ast.Constant)
            }
    return set()


class TestStaticImports:
    def test_src_imports_only_stdlib_numpy_and_itself(self):
        assert _undeclared(_python_files(SRC), SRC_ALLOWED) == []

    def test_harness_imports_only_declared_packages(self):
        paths = _python_files(
            ROOT / "tests", ROOT / "benchmarks", ROOT / "examples"
        )
        assert _undeclared(paths, HARNESS_ALLOWED) == []

    def test_no_unused_module_level_import_in_src(self):
        unused = []
        for path in _python_files(SRC):
            tree = ast.parse(path.read_text())
            used = _used_names(tree) | _exported(tree)
            unused += [
                f"{path.relative_to(ROOT)}:{line}: {name}"
                for name, line in _module_imports(tree).items()
                if name not in used
            ]
        assert unused == []

    def test_the_unused_import_scan_can_fail(self):
        tree = ast.parse(
            "import os\nimport sys\nfrom typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n    from json import loads\n"
            "def f(x: 'Path') -> None:\n    return sys.argv\n"
            "from pathlib import Path\n"
        )
        unused = set(_module_imports(tree)) - _used_names(tree)
        assert unused == {"os"}

    def test_store_does_not_import_the_serving_layer(self):
        upward = [
            f"{path.relative_to(ROOT)}: {module}"
            for path in _python_files(SRC / "repro" / "store")
            for module in _imported_modules(ast.parse(path.read_text()))
            if module.startswith(("repro.service", "repro.server"))
        ]
        assert upward == []


def _is_engine(name: str) -> bool:
    """NumPy, or a module of one of the engine's packages."""
    parts = name.split(".")
    return parts[0] == "numpy" or (
        parts[0] == "repro" and len(parts) > 1 and parts[1] in ENGINE_PACKAGES
    )


def _child(*argv: str, timeout: float = 120) -> object:
    """The JSON a fresh interpreter prints last, run as ``python argv``
    with the source tree importable and no inherited ``BLAEU_*``.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("BLAEU_")}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))
    )
    result = subprocess.run(
        [sys.executable, *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def _fresh_modules(code: str) -> set[str]:
    """``sys.modules`` of a fresh interpreter after running ``code``."""
    report = "import json, sys; print(json.dumps(sorted(sys.modules)))"
    return set(_child("-c", f"{code}\n{report}"))


class TestImportClosure:
    @pytest.mark.parametrize(
        "module", ["repro", "repro.cli", "repro.service.supervisor"]
    )
    def test_entry_points_load_no_engine(self, module):
        loaded = _fresh_modules(f"import {module}")
        assert sorted(name for name in loaded if _is_engine(name)) == []

    def test_supervisor_closure_is_the_proxy(self):
        loaded = _fresh_modules("import repro.service.supervisor")
        assert {name for name in loaded if name.startswith("repro")} == (
            SUPERVISOR_CLOSURE
        )

    def test_importing_every_module_loads_only_declared_packages(self):
        new = _child(
            "-c",
            "import importlib, json, pkgutil, sys\n"
            "before = {name.split('.')[0] for name in sys.modules}\n"
            "import repro\n"
            "for info in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
            "    importlib.import_module(info.name)\n"
            "after = {name.split('.')[0] for name in sys.modules}\n"
            "print(json.dumps(sorted(after - before)))",
        )
        assert "repro" in new
        undeclared = {
            name
            for name in new
            if not name.startswith("__")  # multiprocessing's __mp_main__
            and name not in sys.stdlib_module_names
        }
        assert undeclared <= SRC_ALLOWED


#: A worker's life in one interpreter: boot over the data as ``blaeu
#: serve`` does, answer /healthz, then walk themes → open → zoom →
#: project → highlight and print the ``repro`` modules first imported
#: after boot, and the process-pool modules loaded at all.
_WORKER = textwrap.dedent(
    """
    import asyncio, http.client, json, sys, threading

    from repro.cli import build_engine
    from repro.service.app import BlaeuService
    from repro.service.config import PoolConfig, ServiceConfig

    service = BlaeuService(
        build_engine([sys.argv[1]]),
        ServiceConfig(port=0, pool=PoolConfig(threads=2, max_pending=8)),
    )
    ready, state = threading.Event(), {}

    async def main():
        await service.start()
        state["loop"], state["stop"] = asyncio.get_running_loop(), asyncio.Event()
        task = asyncio.create_task(service.serve_forever())
        ready.set()
        await state["stop"].wait()
        await service.stop()
        task.cancel()

    thread = threading.Thread(target=asyncio.run, args=(main(),), daemon=True)
    thread.start()
    assert ready.wait(30)

    def call(method, path, body=None):
        connection = http.client.HTTPConnection("127.0.0.1", service.port, timeout=60)
        payload = None if body is None else json.dumps(body).encode()
        connection.request(method, path, body=payload)
        response = connection.getresponse()
        data = json.loads(response.read())
        connection.close()
        assert response.status == 200, (path, response.status, data)
        return data

    def leaves(node):
        children = node.get("children")
        return [node] if not children else [
            leaf for child in children for leaf in leaves(child)
        ]

    call("GET", "/healthz")
    booted = set(sys.modules)
    table = sys.argv[2]
    call("GET", f"/v1/tables/{table}/themes")
    session = {"session": "s", "table": table, "theme": 0}
    opened = call("POST", "/v1/commands/open", session)
    region = max(leaves(opened["map"]["root"]), key=lambda r: r["value"])["id"]
    zoomed = call("POST", "/v1/commands/zoom", {"session": "s", "region": region})
    call("POST", "/v1/commands/project", {"session": "s", "theme": 0})
    region = leaves(zoomed["map"]["root"])[0]["id"]
    call("POST", "/v1/commands/highlight", {"session": "s", "region": region})
    state["loop"].call_soon_threadsafe(state["stop"].set)
    thread.join(30)
    new = set(sys.modules) - booted
    pools = {"multiprocessing", "concurrent.futures.process"} & set(sys.modules)
    print(json.dumps({
        "new": sorted(name for name in new if name.startswith("repro")),
        "pools": sorted(pools),
    }))
    """
)


@pytest.fixture(scope="module", params=["store", "memory"])
def served(request, tmp_path_factory):
    """What one worker's life over each residency reported."""
    from repro.datasets.synthetic import mixed_blobs
    from repro.store.format import write_store
    from repro.table.csv_io import write_csv

    table = mixed_blobs(n_rows=2_500, k=3, seed=61).table
    tmp_path = tmp_path_factory.mktemp(request.param)
    if request.param == "store":
        data = tmp_path / "store"
        write_store(table, data, chunk_rows=256, partition_rows=600)
    else:
        data = tmp_path / "mixed_blobs.csv"
        write_csv(table, data)
    return _child("-c", _WORKER, str(data), table.name, timeout=180)


class TestRequestTimeImports:
    def test_serving_imports_nothing_after_boot(self, served):
        assert served["new"] == []

    def test_a_worker_never_loads_a_process_pool(self, served):
        """Every partition pass is one serial fold in the serving
        process: neither boot nor a walk may import a process pool."""
        assert served["pools"] == []


class TestLazyFacade:
    def test_every_curated_name_is_its_home_modules_object(self):
        for name in repro.__all__:
            if name == "__version__":
                continue
            value = getattr(repro, name)
            home = importlib.import_module(repro._HOMES[name])
            assert getattr(home, name) is value
            assert value.__module__ == home.__name__

    def test_homes_cover_the_curated_surface(self):
        assert set(repro._HOMES) == set(repro.__all__) - {"__version__"}

    def test_dir_lists_the_curated_names_before_first_use(self):
        listed = _child("-c", "import json, repro; print(json.dumps(dir(repro)))")
        assert set(repro.__all__) <= set(listed)

    def test_star_import(self):
        namespace: dict[str, object] = {}
        exec("from repro import *", namespace)
        assert set(repro.__all__) <= set(namespace)
        engine = importlib.import_module("repro.core.engine")
        assert namespace["Blaeu"] is engine.Blaeu

    def test_unknown_attribute_names_the_package(self):
        with pytest.raises(AttributeError, match="'repro'.*'no_such_name'"):
            repro.no_such_name

    def test_cache_default_budget_matches_the_artifact_cache(self):
        from repro.service.config import CacheConfig
        from repro.store.artifacts import DEFAULT_MAX_BYTES

        assert CacheConfig().disk_bytes == DEFAULT_MAX_BYTES
