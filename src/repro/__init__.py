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

from repro.core import (
    Blaeu,
    BlaeuConfig,
    DataMap,
    ExplorationConfig,
    Explorer,
    Highlight,
    MapBuilder,
    MapBuildError,
    Region,
    Theme,
    ThemeSet,
    build_map,
    extract_themes,
)
from repro.store import StoredTable, ingest_csv
from repro.table import Database, Table, read_csv

__version__ = "1.0.0"

#: The curated public surface.  ``Blaeu`` (the engine), ``Explorer``
#: (the navigation session), ``Database`` (the table registry),
#: ``build_map`` (the one-shot mapping entry point) and
#: ``ExplorationConfig`` (every engine knob; ``BlaeuConfig`` is its
#: historical name) are the five names the quickstart needs; the rest
#: are the supporting types those five hand back.  Serving-layer names
#: live in :mod:`repro.service`.
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
