"""One residency: no pass asks a table where its rows live.

An in-memory :class:`~repro.table.table.Table` is a one-partition table
with the scan surface of a :class:`~repro.store.stored.StoredTable`, so
every selection-proportional pass — masks, exact counts, highlights,
whole-table NMI, code gathers, key scans — runs one body on both
residencies.  A difference that must survive is a method or attribute
both classes define.  This walk keeps it that way: over the layers that
consume tables it fails on a ``getattr`` / ``hasattr`` probe of a table
(or of the scan surface on anything), on ``is_store_backed`` and on an
``isinstance(…, StoredTable)`` test.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: The layers that consume tables, relative to ``src/repro``.
SCANNED = ("core", "graph", "table", "shell.py")

#: What both table classes define: probing for any of it is a residency
#: test, whatever the object is called.
SURFACE = {
    "cascade",
    "chunk_reader",
    "chunk_rows",
    "iter_chunks",
    "partitions",
    "partitions_skipped",
    "prune_partitions",
    "read_chunk",
    "residency",
    "scan_chunks",
    "scan_mask",
    "scan_partitions",
    "take_columns",
}

ALLOWED = {
    ("table/database.py", "Database.register", "getattr cascade"): (
        "an in-memory table's sample cascade is drawn from the catalog "
        "seed, a store's is persisted with it: the catalog owns the one "
        "and the store the other"
    ),
}


def _probes(sources: dict[str, str]) -> set[tuple[str, str, str]]:
    """``(file, enclosing def, probe)`` of every residency probe."""
    found: set[tuple[str, str, str]] = set()

    def visit(node: ast.AST, path: str, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                inner = scope + (child.name,)
            where = (path, ".".join(scope) or "<module>")
            named = getattr(child, "id", None) or getattr(child, "attr", None)
            if named == "is_store_backed":
                found.add((*where, "is_store_backed"))
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and len(child.args) >= 2
            ):
                callee, (target, second) = child.func.id, child.args[:2]
                attribute = second.value if isinstance(second, ast.Constant) else "?"
                on_table = "table" in ast.unparse(target).lower()
                if callee in ("getattr", "hasattr") and (
                    on_table or attribute in SURFACE
                ):
                    found.add((*where, f"{callee} {attribute}"))
                if callee == "isinstance" and "StoredTable" in ast.unparse(second):
                    found.add((*where, "isinstance StoredTable"))
            visit(child, path, inner)

    for path, text in sources.items():
        visit(ast.parse(text), path, ())
    return found


def _scanned_sources() -> dict[str, str]:
    files: list[Path] = []
    for entry in SCANNED:
        root = SRC / entry
        files += sorted(root.rglob("*.py")) if root.is_dir() else [root]
    return {
        file.relative_to(SRC).as_posix(): file.read_text(encoding="utf-8")
        for file in files
    }


def test_no_layer_probes_a_tables_residency():
    assert _probes(_scanned_sources()) == set(ALLOWED)


def test_the_scan_finds_every_kind_of_probe():
    planted = """
class Stage:
    def run(self, table):
        if getattr(table, "iter_chunks", None) is not None:
            pass
        if hasattr(self._table, "partitions"):
            pass
        if isinstance(table, (Table, StoredTable)):
            pass
        return codes.is_store_backed(table) or getattr(other, "scan_mask")
"""
    assert _probes({"planted.py": planted}) == {
        ("planted.py", "Stage.run", "getattr iter_chunks"),
        ("planted.py", "Stage.run", "hasattr partitions"),
        ("planted.py", "Stage.run", "isinstance StoredTable"),
        ("planted.py", "Stage.run", "is_store_backed"),
        ("planted.py", "Stage.run", "getattr scan_mask"),
    }
