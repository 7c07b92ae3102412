"""Reachability: every public def and method in ``src/`` is reached from
an entry point, and every defaulted parameter of a reached one is passed.

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

The parameter rule: a parameter with a default, of a reached top-level
function or a reached method (a class's constructor included), is *set*
when some live call of that name passes it — by keyword, by a
positional index that covers it (a method call binds ``self``), or
through ``*args`` / ``**kwargs``, which counts as passing everything.
One that no live call sets is a fork only tests select, or a constant
dressed as an option.  The check stays conservative, so it never flags
live code: a def that live code uses as a value (a callback, a handler
table entry, a ``getattr`` string) or reaches through an f-string
``getattr`` dispatch (``_cmd_*``, ``_handle_*``, ``_serve_*``) has every
parameter set, as has a dunder method other than ``__init__``; a class
call, a ``cls(...)`` in its classmethods, a subclass's call and a
``super().__init__`` call reach the constructor they run; and the
signatures of the ``repro.__all__`` defs, a class's constructor for a
class, are roots.  Annotations, ``isinstance`` classes, bases and
attribute namespaces (``Engine.named``) are no value use.  Calls and
value uses are matched by name, so a value use trusts every def of that
name, and a dataclass's fields, which no ``def`` declares, go unchecked;
``tests/test_forks.py`` checks the two places where a deleted selector
could come back unseen that way.  An entry of
``ALLOWED_PARAMETERS`` is a test seam (a fake clock, sink, environment
or stream, or a small size bound) or a decision another ROADMAP item
owns; it needs a reason, must still be unset, and must be passed by
keyword in some test.
"""

from __future__ import annotations

import ast
import copy
import functools
import gc
import textwrap
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

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


#: ``(module, def, parameter)`` → why a defaulted parameter that no
#: live call passes stays.  A *test seam* lets a test substitute a fake
#: (a clock, a sink, an environment, an output stream) or reach at test
#: scale what production reaches only at scale (a small size bound).
ALLOWED_PARAMETERS = {
    ("repro.resilience.breaker", "CircuitBreaker.__init__", "clock"): (
        "test seam: a fake clock walks the breaker through its recovery "
        "window without sleeping (tests/resilience/test_breaker.py)"
    ),
    ("repro.resilience.deadline", "Deadline.expired", "clock"): (
        "test seam: a fake clock expires a deadline without sleeping"
    ),
    ("repro.resilience.deadline", "checkpoint", "clock"): (
        "test seam: a fake clock trips a checkpoint without sleeping"
    ),
    ("repro.resilience.deadline", "deadline_scope", "clock"): (
        "test seam: a fake clock opens a scope at a known instant"
    ),
    ("repro.service.cache", "LRUCache.__init__", "clock"): (
        "test seam: a fake clock ages entries past their TTL"
    ),
    ("repro.store.artifacts", "ArtifactCache.__init__", "clock"): (
        "test seam: a fake clock orders the last-use stamps that "
        "eviction reads"
    ),
    ("repro.obs.trace", "Tracer.__init__", "slow_op_sink"): (
        "test seam: a list collects the slow-op lines that go to stderr"
    ),
    ("repro.service.config", "resolve", "environ"): (
        "test seam: a dict stands in for os.environ, so the BLAEU_* "
        "precedence tests never touch the process environment"
    ),
    ("repro.shell", "BlaeuShell.__init__", "out"): (
        "test seam: a StringIO captures what the shell prints to stdout"
    ),
    ("repro.graph.codes", "CodeCache.__init__", "max_entries"): (
        "test seam: a two-entry bound forces the LRU eviction that 1 024 "
        "entries reach only on wide tables"
    ),
    ("repro.store.format", "write_store", "chunk_rows"): (
        "test seam: small chunks give a test-sized table the many-chunk "
        "layout every scan path must handle"
    ),
    ("repro.store.format", "write_store", "priority_seed"): (
        "ROADMAP item 14(b) decides whether priorities stay; until then "
        "the in-memory twin of ingest_csv(priority_seed=) stays with it"
    ),
    ("repro.store.stored", "StoredTable.top_k_sample", "chunk_rows"): (
        "ROADMAP item 14(b) decides whether the top-k scan stays; its "
        "chunk-boundary tests read with odd chunk sizes until then"
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


def _getattr_name(call: ast.Call) -> ast.expr | None:
    """The name argument of a ``getattr``/``hasattr`` call, else None."""
    if (
        isinstance(call.func, ast.Name)
        and call.func.id in _GETATTR_CALLS
        and len(call.args) >= 2
    ):
        return call.args[1]
    return None


def _constant_str(node: ast.expr | None) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


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
        elif isinstance(child, ast.Call):
            name = _constant_str(_getattr_name(child))
            if name is not None:
                names.add(name)
    return names


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _shell(node: ast.ClassDef) -> ast.ClassDef:
    """What a reached class makes live: a copy of it whose methods have
    no body, so its bases, keywords, decorators, class-level statements
    and each method's decorators and signature."""
    shell = copy.copy(node)
    shell.body = []
    for statement in node.body:
        if isinstance(statement, _FUNCTIONS):
            statement = copy.copy(statement)
            statement.body = []
        shell.body.append(statement)
    return shell


def _always_reached(method: str) -> bool:
    """A dunder or private method runs whenever its class is used: the
    interpreter, the class itself or an f-string ``getattr`` dispatch
    (``_cmd_*``, ``_handle_*``, ``_serve_*``) calls it by a name no
    source spells out."""
    return method.startswith("_")


def _parsed(texts: Iterable[str]) -> list[ast.Module]:
    """``ast.parse`` of each text with the cyclic collector paused: a
    parse allocates many objects and no garbage cycles, and collector
    passes over them would cost as much as the parsing itself."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        return [ast.parse(text) for text in texts]
    finally:
        if collecting:
            gc.enable()


@dataclass(frozen=True)
class Reach:
    """What one walk over the source finds."""

    #: ``(module, name)`` / ``(module, "Class.method")`` of every public
    #: def or method no live code reaches.
    unreached: set[tuple[str, str]]
    #: Every reached function and method → its node and its class's
    #: name (``None`` for a top-level function).
    functions: dict[tuple[str, str], tuple[ast.AST, str | None]]
    #: Every live node, with the class whose method or shell it is in.
    live: list[tuple[ast.AST, str | None]]
    #: Each top-level class's name → the names of its bases.
    bases: dict[str, list[str]]
    roots: frozenset[str]


def walk(
    modules: dict[str, str], entry_points: dict[str, str], roots: set[str]
) -> Reach:
    """Walk ``modules`` (module name → source) from the live code of
    ``entry_points`` (path → source, all of it live), where the names
    in ``roots`` are reached by definition, to a fixed point."""
    live: set[str] = set(roots)
    live_nodes: list[tuple[ast.AST, str | None]] = [
        (tree, None) for tree in _parsed(entry_points.values())
    ]
    # Each top-level def, keyed by (module, name), and each method of a
    # top-level class, keyed by (module, "Class.method").
    defs: dict[tuple[str, str], ast.AST] = {}
    methods: dict[tuple[str, str], tuple[tuple[str, str], str, ast.AST]] = {}
    bases: dict[str, list[str]] = {}
    for module, tree in zip(modules, _parsed(modules.values())):
        for node in tree.body:
            if isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
                defs[(module, node.name)] = node
            else:
                live_nodes.append((node, None))
            if isinstance(node, ast.ClassDef):
                bases[node.name] = [
                    base.id for base in node.bases if isinstance(base, ast.Name)
                ]
                for statement in node.body:
                    if isinstance(statement, _FUNCTIONS):
                        key = (module, f"{node.name}.{statement.name}")
                        methods[key] = (
                            (module, node.name), statement.name, statement
                        )
    for node, _ in live_nodes:
        live |= _referenced(node)
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
                owner, _, node = methods[key]
                fresh = [(node, owner[1])]
            elif isinstance(defs[key], ast.ClassDef):
                fresh = [(_shell(defs[key]), key[1])]
            else:
                fresh = [(defs[key], None)]
            live_nodes += fresh
            for node, _ in fresh:
                live |= _referenced(node)
    unreached = {
        key
        for key in defs
        if key not in reached and not key[1].startswith("_")
    }
    unreached |= {
        key
        for key, (owner, _, _) in methods.items()
        if key not in reached and owner in reached
    }
    functions = {
        key: (node, None)
        for key, node in defs.items()
        if key in reached and isinstance(node, _FUNCTIONS)
    }
    functions.update(
        (key, (node, owner[1]))
        for key, (owner, _, node) in methods.items()
        if key in reached
    )
    return Reach(unreached, functions, live_nodes, bases, frozenset(roots))


def unreached(
    modules: dict[str, str], entry_points: dict[str, str], roots: set[str]
) -> set[tuple[str, str]]:
    """``(module, name)`` of every public top-level def of ``modules``
    that no live code reaches, and ``(module, "Class.method")`` of every
    public method of a reached top-level class that nothing live
    names."""
    return walk(modules, entry_points, roots).unreached


# ----------------------------------------------------------------------
# The parameter check
# ----------------------------------------------------------------------


@dataclass
class _Calls:
    """What the live code passes, indexed by the called name."""

    keywords: dict[str, set[str]] = field(default_factory=dict)
    positional: dict[str, int] = field(default_factory=dict)
    #: Names called with ``*args`` or ``**kwargs``.
    forwarded: set[str] = field(default_factory=set)
    #: Names used as a bare value (``Name`` loads) and as an attribute
    #: value or ``getattr`` string (``Attribute`` loads).
    name_values: set[str] = field(default_factory=set)
    attribute_values: set[str] = field(default_factory=set)
    #: The constant heads of ``getattr(obj, f"_cmd_{verb}")`` names.
    prefixes: set[str] = field(default_factory=set)


def _no_value_uses(node: ast.AST) -> list[ast.AST]:
    """The parts of ``node`` whose names are no value use: annotations,
    bases, ``isinstance`` classes and ``except`` types."""
    if isinstance(node, ast.arg):
        return [node.annotation] if node.annotation else []
    if isinstance(node, _FUNCTIONS):
        return [node.returns] if node.returns else []
    if isinstance(node, ast.AnnAssign):
        return [node.annotation]
    if isinstance(node, ast.ClassDef):
        return list(node.bases)
    if isinstance(node, ast.ExceptHandler):
        return [node.type] if node.type else []
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in {"isinstance", "issubclass"}
        and len(node.args) == 2
    ):
        return [node.args[1]]
    return []


def _index_calls(
    live: list[tuple[ast.AST, str | None]], bases: dict[str, list[str]]
) -> _Calls:
    calls = _Calls()
    for root, owner in live:
        # Ids of the nodes that name a def without using it as a value:
        # a called function, an attribute's namespace, an annotation.
        not_values: set[int] = set()
        for node in ast.walk(root):
            for part in _no_value_uses(node):
                not_values.update(id(child) for child in ast.walk(part))
            if isinstance(node, ast.Call):
                _record_call(calls, node, owner, bases)
                not_values.add(id(node.func))
            elif isinstance(node, ast.Attribute):
                not_values.add(id(node.value))
            if id(node) in not_values or not isinstance(
                getattr(node, "ctx", None), ast.Load
            ):
                continue
            if isinstance(node, ast.Attribute):
                calls.attribute_values.add(node.attr)
            elif isinstance(node, ast.Name):
                calls.name_values.add(node.id)
    return calls


def _record_call(
    calls: _Calls,
    node: ast.Call,
    owner: str | None,
    bases: dict[str, list[str]],
) -> None:
    name = _getattr_name(node)
    if name is not None:
        if _constant_str(name) is not None:
            calls.attribute_values.add(name.value)
        elif isinstance(name, ast.JoinedStr) and name.values:
            head = _constant_str(name.values[0])
            if head:
                calls.prefixes.add(head)
    func = node.func
    n_positional = len(node.args)
    if isinstance(func, ast.Name):
        # ``cls(...)`` in a classmethod constructs the method's class.
        callees = [owner if func.id == "cls" and owner else func.id]
    elif not isinstance(func, ast.Attribute):
        return
    elif func.attr != "__init__":
        callees = [func.attr]
    elif isinstance(func.value, ast.Name):
        # ``Base.__init__(self, ...)``: a call of ``Base`` with ``self``.
        callees, n_positional = [func.value.id], n_positional - 1
    elif (
        isinstance(func.value, ast.Call)
        and isinstance(func.value.func, ast.Name)
        and func.value.func.id == "super"
        and owner is not None
    ):
        callees = bases.get(owner, [])
    else:
        callees = ["__init__"]
    forwarded = any(isinstance(arg, ast.Starred) for arg in node.args) or any(
        keyword.arg is None for keyword in node.keywords
    )
    for callee in callees:
        if forwarded:
            calls.forwarded.add(callee)
        calls.keywords.setdefault(callee, set()).update(
            keyword.arg for keyword in node.keywords if keyword.arg
        )
        calls.positional[callee] = max(
            calls.positional.get(callee, 0), n_positional
        )


def _init_owner(
    name: str, bases: dict[str, list[str]], inits: set[str]
) -> str | None:
    """The class whose ``__init__`` a call of class ``name`` runs."""
    if name in inits:
        return name
    for base in bases.get(name, ()):
        owner = _init_owner(base, bases, inits)
        if owner is not None:
            return owner
    return None


def unset_parameters(reach: Reach) -> set[tuple[str, str, str]]:
    """``(module, def, parameter)`` of every defaulted parameter of a
    reached def or method that no live call passes."""
    calls = _index_calls(reach.live, reach.bases)
    inits = {
        owner for (_, name), (_, owner) in reach.functions.items()
        if owner is not None and name.endswith(".__init__")
    }
    constructors: dict[str, set[str]] = {}
    for name in reach.bases:
        owner = _init_owner(name, reach.bases, inits)
        if owner is not None:
            constructors.setdefault(owner, set()).add(name)
    values = calls.name_values | calls.attribute_values
    found: set[tuple[str, str, str]] = set()
    for (module, qualname), (node, owner) in reach.functions.items():
        name = qualname.rpartition(".")[2]
        if owner is None:
            callees = {name}
            as_value = name in values or name in reach.roots
        elif name == "__init__":
            classes = constructors.get(owner, {owner})
            callees = {"__init__", *classes}
            as_value = bool(classes & (values | reach.roots))
        elif name.startswith("__"):
            continue  # the interpreter calls it
        else:
            callees = {name}
            as_value = name in calls.attribute_values
        if as_value or callees & calls.forwarded or any(
            name.startswith(prefix) for prefix in calls.prefixes
        ):
            continue
        keywords = set().union(*(calls.keywords.get(c, ()) for c in callees))
        positional = max(calls.positional.get(c, 0) for c in callees)
        arguments = node.args
        ordered = [*arguments.posonlyargs, *arguments.args]
        static = any(
            isinstance(d, ast.Name) and d.id == "staticmethod"
            for d in node.decorator_list
        )
        offset = 1 if owner is not None and not static else 0
        first_default = len(ordered) - len(arguments.defaults)
        for index, argument in enumerate(ordered):
            if index >= first_default and not (
                argument.arg in keywords or index - offset < positional
            ):
                found.add((module, qualname, argument.arg))
        for argument, default in zip(
            arguments.kwonlyargs, arguments.kw_defaults
        ):
            if default is not None and argument.arg not in keywords:
                found.add((module, qualname, argument.arg))
    return found


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


@functools.cache
def _src_reach() -> Reach:
    """The walk over ``src/`` from the real entry points, made once per
    session for every check that reads it."""
    return walk(_src_modules(), _entry_points(), set(repro.__all__))


def test_every_public_def_is_reached_or_allow_listed():
    assert sorted(_src_reach().unreached - set(ALLOWED)) == []


def test_no_allow_list_entry_is_stale():
    assert sorted(set(ALLOWED) - _src_reach().unreached) == []
    assert all(reason.strip() for reason in ALLOWED.values())


def _unexercised(allowed, named: set[str]) -> list[str]:
    """The allow-listed names no test names (a method by its own name)."""
    return sorted(
        name for _, name in allowed if name.rpartition(".")[2] not in named
    )


@functools.cache
def _test_trees() -> tuple[ast.Module, ...]:
    """Every test module but this one, parsed once per session."""
    return tuple(
        _parsed(
            path.read_text(encoding="utf-8")
            for path in sorted((ROOT / "tests").rglob("test_*.py"))
            if path.name != Path(__file__).name
        )
    )


def test_every_allow_listed_def_is_exercised_by_a_test():
    """An allow-listed def or method is kept for what a test checks of
    it; one no test names is kept for nothing."""
    named: set[str] = set()
    for tree in _test_trees():
        named |= _referenced(tree)
    assert _unexercised(ALLOWED, named) == []


@functools.cache
def _src_unset() -> frozenset[tuple[str, str, str]]:
    return frozenset(unset_parameters(_src_reach()))


def test_every_defaulted_parameter_is_passed_or_allow_listed():
    assert sorted(_src_unset() - set(ALLOWED_PARAMETERS)) == []


def test_no_parameter_allow_list_entry_is_stale():
    assert sorted(set(ALLOWED_PARAMETERS) - _src_unset()) == []
    assert all(reason.strip() for reason in ALLOWED_PARAMETERS.values())


def _callee(qualname: str) -> str:
    """The name a call of def ``qualname`` spells: a constructor is
    called by its class's name."""
    owner, _, name = qualname.rpartition(".")
    return owner if name == "__init__" else name


def _unpassed(allowed, passed: set[tuple[str, str]]) -> list[str]:
    """The allow-listed parameters no test passes by keyword."""
    return sorted(
        f"{qualname}({parameter}=)"
        for _, qualname, parameter in allowed
        if (_callee(qualname), parameter) not in passed
    )


def _keywords_passed(tree: ast.AST) -> set[tuple[str, str]]:
    """``(called name, keyword)`` of every call in ``tree``."""
    passed: set[tuple[str, str]] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            passed.update(
                (name, keyword.arg) for keyword in node.keywords if keyword.arg
            )
    return passed


def test_every_allow_listed_parameter_is_passed_by_a_test():
    """A seam is kept for the test that passes it; one no test passes
    is a fork kept for nothing."""
    passed: set[tuple[str, str]] = set()
    for tree in _test_trees():
        passed |= _keywords_passed(tree)
    assert _unpassed(ALLOWED_PARAMETERS, passed) == []


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


# ----------------------------------------------------------------------
# The parameter check, on planted sources
# ----------------------------------------------------------------------


def _unset(engine: str, script: str = "", roots=()) -> set[str]:
    """``"def.parameter"`` of the unset parameters of one planted module."""
    found = unset_parameters(
        walk(
            {"repro.engine": textwrap.dedent(engine)},
            {"script.py": textwrap.dedent(script)},
            set(roots),
        )
    )
    return {f"{name}.{parameter}" for _, name, parameter in found}


BUILD = """
    def build(rows, limit=10, *, strict=False):
        pass
"""


def test_a_keyword_pass_sets_a_parameter():
    assert _unset(BUILD, "build(rows)") == {"build.limit", "build.strict"}
    assert _unset(BUILD, "build(rows, strict=True)") == {"build.limit"}


def test_a_positional_pass_sets_the_parameters_it_covers():
    assert _unset(BUILD, "build(rows, 5)") == {"build.strict"}
    engine = """
        class Engine:
            def run(self, rows, limit=10, depth=2):
                pass
    """
    # ``self`` is bound by the attribute call, so two arguments cover
    # ``rows`` and ``limit``.
    assert _unset(engine, "Engine().run(rows, 5)") == {"Engine.run.depth"}


def test_star_args_and_kwargs_forwarding_set_every_parameter():
    assert _unset(BUILD, "build(*args)") == set()
    assert _unset(BUILD, "build(rows, **options)") == set()


def test_a_def_used_as_a_value_has_every_parameter_set():
    script = """
        handlers = {"build": build}
    """
    assert _unset(BUILD, script) == set()
    assert _unset(BUILD, "pool.submit(build, rows)") == set()
    engine = """
        class Engine:
            def run(self, limit=10):
                pass
    """
    script = """
        engine = Engine()
        thread = Thread(target=engine.run)
    """
    assert _unset(engine, script) == set()


def test_annotations_isinstance_and_namespaces_are_no_value_use():
    engine = """
        class Engine:
            def __init__(self, limit=10):
                pass

            @classmethod
            def named(cls, name):
                return cls()
    """
    script = """
        def serve(engine: Engine) -> Engine:
            assert isinstance(engine, Engine)
            return Engine.named("x")
    """
    assert _unset(engine, script) == {"Engine.__init__.limit"}


def test_a_getattr_dispatched_method_has_every_parameter_set():
    engine = """
        class Shell:
            def handle(self, verb):
                return getattr(self, f"_cmd_{verb}")()

            def _cmd_open(self, theme=0):
                pass

            def run(self, limit=10):
                pass
    """
    script = """
        shell = Shell()
        shell.handle("open")
        shell.run()
    """
    assert _unset(engine, script) == {"Shell.run.limit"}
    script = """
        shell = Shell()
        getattr(shell, "run")()
    """
    assert _unset(engine, script) == {"Shell._cmd_open.theme"}


def test_a_class_call_reaches_its_constructor():
    engine = """
        class Engine:
            def __init__(self, size=1, clock=None):
                pass


        class Child(Engine):
            pass


        class Grandchild(Child):
            def __init__(self, depth=0):
                super().__init__(size=depth)
    """
    assert _unset(engine, "Engine(size=2)") == {"Engine.__init__.clock"}
    # A subclass without a constructor of its own runs its base's.
    assert _unset(engine, "Child(2, None)") == set()
    # ``super().__init__`` calls the base's, with what it passes.
    assert _unset(engine, "Grandchild(depth=1)") == {"Engine.__init__.clock"}


def test_a_classmethods_cls_call_reaches_its_constructor():
    engine = """
        class Engine:
            def __init__(self, size=1, clock=None):
                pass

            @classmethod
            def sized(cls, size):
                return cls(size)
    """
    assert _unset(engine, "Engine.sized(3)") == {"Engine.__init__.clock"}


def test_a_dunder_other_than_the_constructor_is_never_reported():
    engine = """
        class Engine:
            def __exit__(self, kind=None, error=None, trace=None):
                pass

            def __getitem__(self, key, default=None):
                pass
    """
    assert _unset(engine, "Engine()") == set()


def test_the_curated_surface_sets_every_parameter_of_its_signatures():
    engine = """
        def read(path, limit=None):
            pass


        class Engine:
            def __init__(self, clock=None):
                pass

            def run(self, limit=10):
                pass
    """
    script = "read(path)\nEngine().run()"
    assert _unset(engine, script) == {
        "read.limit",
        "Engine.__init__.clock",
        "Engine.run.limit",
    }
    # A root's signature is set, and a class root's constructor; its
    # public methods are no roots of their own.
    assert _unset(engine, script, roots={"read", "Engine"}) == {
        "Engine.run.limit"
    }


def test_a_parameter_allow_list_key_must_be_unset_and_passed_by_a_test():
    engine = """
        class Breaker:
            def __init__(self, clock=None):
                pass
    """
    key = ("repro.engine", "Breaker.__init__", "clock")
    modules = {"repro.engine": textwrap.dedent(engine)}
    unset = unset_parameters(walk(modules, {"script.py": "Breaker()"}, set()))
    assert key in unset
    passed = {"script.py": "Breaker(clock=now)"}
    assert key not in unset_parameters(walk(modules, passed, set()))  # stale
    test = ast.parse("Breaker(clock=FakeClock())")
    assert _unpassed({key: ""}, _keywords_passed(test)) == []
    other = ast.parse("Breaker(); breaker.clock()")
    assert _unpassed({key: ""}, _keywords_passed(other)) == [
        "Breaker.__init__(clock=)"
    ]
