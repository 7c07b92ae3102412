"""Reachability: every public def and method in ``src/`` is reached from
an entry point.

A public top-level ``def`` or ``class`` of a ``src/repro`` module, or a
public method of one of its top-level classes, that no program path
calls is code the tests keep alive on their own: it costs reading, it
can drift from the code that serves, and it can hold resources nobody
asked for.  This walk reads the source with the stdlib ``ast`` module
and fails on any such def or method that is not allow-listed with a
reason.

The rule: a top-level def is *reached* when it is in ``repro.__all__``
(the curated library surface), or when its name is referenced — as a
``Name``, an ``Attribute``, an ``ImportFrom`` alias or a string literal
passed to ``getattr``/``hasattr`` — from live code of a non-test file.
Every line of ``examples/`` and of ``benchmarks/`` (but its tests) is
live, and so is the module-level code of every ``src/`` module; the
body of a top-level function is live only once it is reached.  A
reached class makes live only its shell: bases, keywords, decorators,
class-level statements, and each method's decorators and signature.
Its methods are reached one by one: a dunder or private method with the
class (the interpreter, the class itself or an f-string ``getattr``
dispatch such as ``_cmd_*`` calls it), a public one when live code names
it; only a reached method's body is live.  The public methods of a
class in ``repro.__all__`` are no roots of their own.  The walk
iterates to a fixed point, so a def or method reached only from
unreached ones is itself unreached, and the methods of an unreached
class are reported with it, not one by one.  References from the
package facades (``__init__.py``), from a module's ``__all__`` strings
and from a def's own body never count.  Matching is by name, so a def
shares its reach with every method or attribute of the same name: the
guard can miss dead code (and cannot see a dead field at all), never
flag live code.  An allow-list entry (``name`` or ``"Class.method"``)
needs a reason, must still be unreached, and must be named by some
test: it is kept for what that test checks.
"""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

#: ``(module, name)`` or ``(module, "Class.method")`` → why a def or
#: method no entry point reaches stays in ``src/``.
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
    ("repro.core.navigation", "Explorer.project_columns"): (
        "the paper's Fig. 1d projection onto an explicit column set, "
        "which tests/paper/test_fig1_navigation.py asserts"
    ),
    ("repro.core.navigation", "Explorer.local_themes"): (
        "the one entry into the row-restricted theme and graph builds "
        "(extract_themes(row_indices=), GraphBuilder's row gather) that "
        "the README's selection deep-dive describes"
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


_GETATTR_CALLS = frozenset({"getattr", "hasattr"})


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
        elif (
            isinstance(child, ast.Call)
            and isinstance(child.func, ast.Name)
            and child.func.id in _GETATTR_CALLS
            and len(child.args) >= 2
            and isinstance(child.args[1], ast.Constant)
            and isinstance(child.args[1].value, str)
        ):
            names.add(child.args[1].value)
    return names


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _shell(node: ast.ClassDef) -> set[str]:
    """What a reached class makes live: its bases, keywords, decorators
    and class-level statements, and each method's decorators and
    signature, but no method body."""
    names: set[str] = set()
    for part in (*node.bases, *node.keywords, *node.decorator_list):
        names |= _referenced(part)
    for statement in node.body:
        if isinstance(statement, _FUNCTIONS):
            for part in (*statement.decorator_list, statement.args):
                names |= _referenced(part)
            if statement.returns is not None:
                names |= _referenced(statement.returns)
        else:
            names |= _referenced(statement)
    return names


def _always_reached(method: str) -> bool:
    """A dunder or private method runs whenever its class is used: the
    interpreter, the class itself or an f-string ``getattr`` dispatch
    (``_cmd_*``, ``_handle_*``, ``_serve_*``) calls it by a name no
    source spells out."""
    return method.startswith("_")


def unreached(
    modules: dict[str, str], entry_points: dict[str, str], roots: set[str]
) -> set[tuple[str, str]]:
    """``(module, name)`` of every public top-level def of ``modules``
    (module name → source) that no live code of ``modules`` or
    ``entry_points`` (path → source, all of it live) reaches, where the
    names in ``roots`` are reached by definition, and ``(module,
    "Class.method")`` of every public method of a reached top-level
    class that nothing live names."""
    live: set[str] = set(roots)
    for text in entry_points.values():
        live |= _referenced(ast.parse(text))
    # Each top-level def, keyed by (module, name), and each method of a
    # top-level class, keyed by (module, "Class.method").
    defs: dict[tuple[str, str], ast.AST] = {}
    methods: dict[tuple[str, str], tuple[tuple[str, str], str, ast.AST]] = {}
    for module, text in modules.items():
        for node in ast.parse(text).body:
            if isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
                defs[(module, node.name)] = node
            else:
                live |= _referenced(node)
            if isinstance(node, ast.ClassDef):
                for statement in node.body:
                    if isinstance(statement, _FUNCTIONS):
                        key = (module, f"{node.name}.{statement.name}")
                        methods[key] = (
                            (module, node.name), statement.name, statement
                        )
    reached: set[tuple[str, str]] = set()
    while True:
        grown = {
            key for key in defs if key[1] in live and key not in reached
        }
        grown |= {
            key
            for key, (owner, name, _) in methods.items()
            if owner in reached
            and key not in reached
            and (_always_reached(name) or name in live)
        }
        if not grown:
            break
        reached |= grown
        for key in grown:
            if key in methods:
                live |= _referenced(methods[key][2])
            elif isinstance(defs[key], ast.ClassDef):
                live |= _shell(defs[key])
            else:
                live |= _referenced(defs[key])
    unreached_defs = {
        key
        for key in defs
        if key not in reached and not key[1].startswith("_")
    }
    return unreached_defs | {
        key
        for key, (owner, _, _) in methods.items()
        if key not in reached and owner in reached
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


def _unexercised(allowed, named: set[str]) -> list[str]:
    """The allow-listed names no test names (a method by its own name)."""
    return sorted(
        name for _, name in allowed if name.rpartition(".")[2] not in named
    )


def test_every_allow_listed_def_is_exercised_by_a_test():
    """An allow-listed def or method is kept for what a test checks of
    it; one no test names is kept for nothing."""
    named: set[str] = set()
    for path in sorted((ROOT / "tests").rglob("test_*.py")):
        if path.name != Path(__file__).name:
            named |= _referenced(ast.parse(path.read_text(encoding="utf-8")))
    assert _unexercised(ALLOWED, named) == []


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


# ----------------------------------------------------------------------
# The method walk, on planted sources
# ----------------------------------------------------------------------


def test_a_method_nothing_names_is_unreached():
    engine = """
        class Engine:
            def used(self):
                pass

            def unused(self):
                pass
    """
    assert _walk(engine, "Engine().used()") == {"Engine.unused"}


def test_an_entry_point_reaches_a_method_by_attribute_or_getattr():
    engine = """
        class Engine:
            def attribute(self):
                pass

            def dispatched(self):
                pass

            def probed(self):
                pass
    """
    script = """
        engine = Engine()
        engine.attribute()
        getattr(engine, "dispatched")()
        hasattr(engine, "probed")
    """
    assert _walk(engine, script) == set()


def test_other_strings_do_not_reach_a_method():
    engine = """
        class Engine:
            def named(self):
                pass
    """
    script = """
        engine = Engine()
        print("named")
    """
    assert _walk(engine, script) == {"Engine.named"}


def test_private_and_dunder_methods_are_reached_with_their_class():
    engine = """
        class Engine:
            def __init__(self):
                self._helper()

            def _helper(self):
                return public_from_private()

            def _cmd_open(self):
                return public_from_dispatch()

            def __len__(self):
                return 0


        def public_from_private():
            pass


        def public_from_dispatch():
            pass
    """
    assert _walk(engine, "Engine()") == set()
    # Unreached class: its private methods' bodies stay dead too.
    assert _walk(engine) == {
        "Engine",
        "public_from_private",
        "public_from_dispatch",
    }


def test_a_def_called_only_from_an_unreached_method_is_unreached():
    engine = """
        class Engine:
            def run(self):
                return step()

            def dead(self):
                return dead_helper()


        def step():
            pass


        def dead_helper():
            pass
    """
    assert _walk(engine, "Engine().run()") == {"Engine.dead", "dead_helper"}


def test_a_method_reached_only_from_an_unreached_method_is_unreached():
    engine = """
        class Engine:
            def run(self):
                return self.step()

            def step(self):
                pass

            def dead(self):
                return self.dead_step()

            def dead_step(self):
                pass
    """
    assert _walk(engine, "Engine().run()") == {"Engine.dead", "Engine.dead_step"}


def test_the_methods_of_an_unreached_class_are_not_reported_separately():
    engine = """
        class Engine:
            def method(self):
                pass
    """
    assert _walk(engine) == {"Engine"}


def test_the_curated_surface_reaches_a_class_not_its_public_methods():
    engine = """
        class Engine:
            def unused(self):
                pass
    """
    assert _walk(engine, roots={"Engine"}) == {"Engine.unused"}


def test_a_reached_class_makes_only_its_shell_live():
    engine = """
        class Engine(Base, metaclass=Meta):
            LIMIT = limit()

            @decorated
            def method(self, value: Annotated = default()) -> Returned:
                return body_only()


        class Base: pass
        class Meta(type): pass
        class Annotated: pass
        class Returned: pass
        def limit(): pass
        def decorated(fn): return fn
        def default(): pass
        def body_only(): pass
    """
    assert _walk(engine, "Engine") == {"Engine.method", "body_only"}


def test_a_method_allow_list_key_must_be_unreached_and_named_by_a_test():
    engine = """
        class Explorer:
            def project_columns(self):
                pass
    """
    key = ("repro.engine", "Explorer.project_columns")
    modules = {"repro.engine": textwrap.dedent(engine)}
    assert key in unreached(modules, {"script.py": "Explorer()"}, set())
    called = {"script.py": "Explorer().project_columns()"}
    assert key not in unreached(modules, called, set())  # the entry is stale
    assert _unexercised({key: ""}, {"project_columns"}) == []
    assert _unexercised({key: ""}, {"Explorer"}) == ["Explorer.project_columns"]
