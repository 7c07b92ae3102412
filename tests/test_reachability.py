"""Reachability: every public def in ``src/`` is reached from an entry point.

A public top-level ``def`` or ``class`` of a ``src/repro`` module that
no program path calls is code the tests keep alive on their own: it
costs reading, it can drift from the code that serves, and it can hold
resources nobody asked for.  This walk reads the source with the stdlib
``ast`` module and fails on any such def that is not allow-listed with
a reason.

The rule: a def is *reached* when it is in ``repro.__all__`` (the
curated library surface), or when its name is referenced — as a
``Name``, an ``Attribute`` or an ``ImportFrom`` alias — from live code
of a non-test file.  Every line of ``examples/`` and of ``benchmarks/``
(but its tests) is live, and so is the module-level code of every
``src/`` module; the body of a top-level def is live only once the def
is reached.  The walk iterates to a fixed point, so a def reached only
from unreached defs is itself unreached.  References from the package
facades (``__init__.py``), from a module's ``__all__`` strings and from
a def's own body never count.  Matching is by name, so a def shares its
reach with every method or attribute of the same name: the guard can
miss dead code (methods are not checked at all), never flag live code.
An allow-list entry needs a reason, must still be unreached, and must be
named by some test: it is kept for what that test checks.
"""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

#: ``(module, name)`` → why a def no entry point reaches stays in ``src/``.
ALLOWED = {
    ("repro.core.queries", "quantized_queries"): (
        "the paper's expressivity claim (§2): the finite query space one "
        "click away, which tests/paper/test_expressivity.py checks"
    ),
    ("repro.core.queries", "QuantizedQuery"): (
        "the element type quantized_queries returns"
    ),
    ("repro.obs.metrics", "escape_label_value"): (
        "safety code: the one sanitizer for a label value built from "
        "untrusted input, which the registry rejects unescaped"
    ),
    ("repro.resilience.faults", "install_faults"): (
        "the in-process twin of BLAEU_FAULTS, which a process reads "
        "once: how a chaos test arms and disarms its own fault points"
    ),
}


def _python_files(root: Path) -> list[Path]:
    return sorted(
        path
        for path in root.rglob("*.py")
        if not {"__pycache__", "tests"} & set(path.relative_to(ROOT).parts)
    )


def _module_name(path: Path) -> str:
    return ".".join(path.relative_to(SRC.parent).with_suffix("").parts)


def _referenced(node: ast.AST) -> set[str]:
    """Every name ``node`` references, its nested defs included."""
    names: set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
        elif isinstance(child, ast.ImportFrom):
            names.update(alias.name for alias in child.names)
    return names


def unreached(
    modules: dict[str, str], entry_points: dict[str, str], roots: set[str]
) -> set[tuple[str, str]]:
    """``(module, name)`` of every public top-level def of ``modules``
    (module name → source) that no live code of ``modules`` or
    ``entry_points`` (path → source, all of it live) reaches, where the
    names in ``roots`` are reached by definition."""
    live: set[str] = set(roots)
    for text in entry_points.values():
        live |= _referenced(ast.parse(text))
    # Each top-level def's body, keyed by (module, name), live once reached.
    bodies: dict[tuple[str, str], ast.AST] = {}
    for module, text in modules.items():
        for node in ast.parse(text).body:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                bodies[(module, node.name)] = node
            else:
                live |= _referenced(node)
    reached: set[tuple[str, str]] = set()
    while True:
        grown = {
            key for key in bodies if key[1] in live and key not in reached
        }
        if not grown:
            break
        reached |= grown
        for key in grown:
            live |= _referenced(bodies[key])
    return {
        key
        for key in bodies
        if key not in reached and not key[1].startswith("_")
    }


def _src_modules() -> dict[str, str]:
    return {
        _module_name(path): path.read_text(encoding="utf-8")
        for path in _python_files(SRC)
        if path.name != "__init__.py"
    }


def _entry_points() -> dict[str, str]:
    return {
        path.relative_to(ROOT).as_posix(): path.read_text(encoding="utf-8")
        for root in (ROOT / "examples", ROOT / "benchmarks")
        for path in _python_files(root)
    }


def test_every_public_def_is_reached_or_allow_listed():
    found = unreached(_src_modules(), _entry_points(), set(repro.__all__))
    assert sorted(found - set(ALLOWED)) == []


def test_no_allow_list_entry_is_stale():
    found = unreached(_src_modules(), _entry_points(), set(repro.__all__))
    assert sorted(set(ALLOWED) - found) == []
    assert all(reason.strip() for reason in ALLOWED.values())


def test_every_allow_listed_def_is_exercised_by_a_test():
    """An allow-listed def is kept for what a test checks of it; one no
    test names is kept for nothing."""
    named: set[str] = set()
    for path in sorted((ROOT / "tests").rglob("test_*.py")):
        if path.name != Path(__file__).name:
            named |= _referenced(ast.parse(path.read_text(encoding="utf-8")))
    assert sorted(name for _, name in ALLOWED if name not in named) == []


def test_the_entry_points_are_examples_and_benchmarks_but_their_tests():
    paths = list(_entry_points())
    assert any(path.startswith("examples/") for path in paths)
    assert "benchmarks/e2e/run.py" in paths
    assert not [path for path in paths if "/tests/" in path]
    assert not [name for name in _src_modules() if name.endswith("__init__")]


# ----------------------------------------------------------------------
# The walk itself, on planted sources
# ----------------------------------------------------------------------


def _walk(engine: str, script: str = "", roots=()) -> set[str]:
    """Names of the unreached defs of one planted module."""
    found = unreached(
        {"repro.engine": textwrap.dedent(engine)},
        {"script.py": textwrap.dedent(script)},
        set(roots),
    )
    return {name for _, name in found}


def test_a_def_nothing_names_is_unreached():
    engine = """
        def used():
            pass

        def unused():
            pass
    """
    assert _walk(engine, "used()") == {"unused"}


def test_an_entry_point_reaches_by_name_attribute_or_import():
    engine = """
        def called():
            pass

        def attribute():
            pass

        def imported():
            pass
    """
    script = """
        from repro.engine import imported
        called()
        thing.attribute
    """
    assert _walk(engine, script) == set()


def test_src_module_level_code_reaches():
    engine = """
        HANDLERS = {"open": handle_open}

        def handle_open():
            pass
    """
    assert _walk(engine) == set()


def test_the_curated_surface_reaches():
    engine = """
        class Engine:
            pass
    """
    assert _walk(engine) == {"Engine"}
    assert _walk(engine, roots={"Engine"}) == set()


def test_a_def_reached_only_from_unreached_defs_is_unreached():
    engine = """
        def run():
            return step()

        def step():
            return helper()

        def helper():
            pass

        def dead():
            return dead_helper()

        def dead_helper():
            return dead_leaf()

        def dead_leaf():
            pass
    """
    assert _walk(engine, "run()") == {"dead", "dead_helper", "dead_leaf"}


def test_a_def_does_not_reach_itself():
    engine = """
        def recursive(n):
            return recursive(n - 1)
    """
    assert _walk(engine) == {"recursive"}


def test_all_strings_do_not_reach():
    engine = """
        __all__ = ["exported"]

        def exported():
            pass
    """
    assert _walk(engine) == {"exported"}


def test_private_defs_are_never_reported_and_reach_only_when_reached():
    engine = """
        def _private():
            return public_only_from_private()

        def public_only_from_private():
            pass
    """
    assert _walk(engine) == {"public_only_from_private"}
