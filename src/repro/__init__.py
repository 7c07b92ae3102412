"""Reproduction of *Blaeu: Mapping and Navigating Large Tables with
Cluster Analysis* (Sellam, Cijvat, Koopmanschap, Kersten — VLDB 2016).

Blaeu guides casual users through large tables with a double cluster
analysis: columns are clustered into *themes* (via a mutual-information
dependency graph partitioned with PAM) and tuples are clustered into
hierarchical *data maps* (preprocess → PAM/CLARA → CART description),
which users navigate with four reversible actions — zoom, highlight,
project and rollback — implicitly composing Select-Project queries.

Quickstart::

    from repro import Blaeu
    from repro.datasets import hollywood

    engine = Blaeu()
    engine.register(hollywood())
    explorer = engine.explore("hollywood")
    print([t.name for t in explorer.themes()])
    data_map = explorer.open_theme(0)
    print(explorer.sql())

The README's "Measuring" section holds the paper-vs-measured record of
every reproduced figure and claim; ``tests/paper/`` asserts it.
"""

import importlib

__version__ = "1.0.0"

#: The curated public surface.  ``Blaeu`` (the engine), ``Explorer``
#: (the navigation session), ``Database`` (the table registry),
#: ``build_map`` (the one-shot mapping entry point) and
#: ``ExplorationConfig`` (every engine knob; ``BlaeuConfig`` is its
#: historical name) are the five names the quickstart needs; the rest
#: are the supporting types those five hand back.  Serving-layer names
#: live in the :mod:`repro.service` submodules.
__all__ = [
    "Blaeu",
    "BlaeuConfig",
    "DataMap",
    "Database",
    "ExplorationConfig",
    "Explorer",
    "Highlight",
    "MapBuildError",
    "MapBuilder",
    "Region",
    "StoredTable",
    "Table",
    "Theme",
    "ThemeSet",
    "__version__",
    "build_map",
    "extract_themes",
    "ingest_csv",
    "read_csv",
]

#: Each curated name's home module.  A name is imported from its home on
#: first use (PEP 562), so ``python -m repro`` and the supervisor, which
#: need none of them, do not load the engine.
_HOMES = {
    "Blaeu": "repro.core.engine",
    "BlaeuConfig": "repro.core.config",
    "DataMap": "repro.core.datamap",
    "Database": "repro.table.database",
    "ExplorationConfig": "repro.core.config",
    "Explorer": "repro.core.navigation",
    "Highlight": "repro.core.navigation",
    "MapBuildError": "repro.core.pipeline",
    "MapBuilder": "repro.core.pipeline",
    "Region": "repro.core.datamap",
    "StoredTable": "repro.store.stored",
    "Table": "repro.table.table",
    "Theme": "repro.core.themes",
    "ThemeSet": "repro.core.themes",
    "build_map": "repro.core.pipeline",
    "extract_themes": "repro.core.themes",
    "ingest_csv": "repro.store.ingest",
    "read_csv": "repro.table.csv_io",
}


def __getattr__(name: str):
    try:
        home = _HOMES[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(importlib.import_module(home), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
