"""The Blaeu facade: one object from CSV to navigable maps.

Ties the catalog (:class:`~repro.table.database.Database`), theme
extraction, map building and navigation together behind the API a
downstream user starts from::

    from repro import Blaeu

    engine = Blaeu()
    engine.load_csv("countries.csv")
    explorer = engine.explore("countries")
    for theme in explorer.themes():
        print(theme.name, theme.columns)
    data_map = explorer.open_theme(0)
"""

from __future__ import annotations

import threading
from functools import partial
from pathlib import Path

from repro.core.config import BlaeuConfig
from repro.core.datamap import DataMap
from repro.core.navigation import Explorer
from repro.core.pipeline import MapBuilder
from repro.core.themes import ThemeSet, extract_themes
from repro.graph.dependency import GraphBuilder
from repro.obs.trace import get_tracer
from repro.table.database import Database
from repro.table.table import Table

__all__ = ["Blaeu"]


class Blaeu:
    """The top-level engine: catalog + mapping + navigation sessions."""

    def __init__(
        self,
        config: BlaeuConfig | None = None,
        map_cache: object | None = None,
    ) -> None:
        self._config = config or BlaeuConfig()
        self._config_digest = self._config.digest()
        self._database = Database()
        #: Themes by table content and config, plus one lock per entry
        #: so concurrent first requests run a single extraction.
        self._themes: dict[tuple, ThemeSet] = {}
        self._theme_flights: dict[tuple, threading.Lock] = {}
        self._flights_lock = threading.Lock()
        self._map_cache = map_cache
        self._graph_builder = GraphBuilder(result_cache=map_cache)
        self._map_builder = MapBuilder(result_cache=map_cache)

    @property
    def config(self) -> BlaeuConfig:
        """The engine configuration."""
        return self._config

    @property
    def database(self) -> Database:
        """The underlying catalog (MonetDB's role)."""
        return self._database

    @property
    def map_cache(self) -> object | None:
        """The shared map result cache (``None`` when caching is off)."""
        return self._map_cache

    @property
    def graph_builder(self) -> GraphBuilder:
        """The shared dependency-graph builder (codes + graph reuse)."""
        return self._graph_builder

    @property
    def map_builder(self) -> MapBuilder:
        """The shared map-pipeline builder (stage + map reuse)."""
        return self._map_builder

    def set_map_cache(self, cache: object | None) -> None:
        """Install (or remove) a shared map result cache.

        The cache must expose ``get(key)``/``put(key, value)``; existing
        explorers keep the builder they were created with.  The graph
        and map builders adopt the same cache as their memo, so finished
        dependency graphs and pipeline stage artifacts are shared across
        sessions alongside maps; theme sets are looked up in (and written
        to) it as well, which is how a disk-backed cache carries them to
        other workers and across restarts.
        """
        self._map_cache = cache
        self._graph_builder.set_result_cache(cache)
        self._map_builder.set_result_cache(cache)

    # ------------------------------------------------------------------
    # Data ingestion
    # ------------------------------------------------------------------

    def load_csv(self, path: str | Path, name: str | None = None) -> Table:
        """Load a CSV file into the catalog; returns the table."""
        return self._database.load_csv(path, name=name)

    def load_store(self, path: str | Path, name: str | None = None):
        """Register a store directory (out-of-core table); returns it.

        The rows stay on disk (:mod:`repro.store`); exploration samples
        and scans them in chunks instead of materializing the table.
        """
        return self._database.load_store(path, name=name)

    def register(self, table) -> None:
        """Register an in-memory ``Table`` or a ``StoredTable``."""
        self._database.register(table)

    def tables(self) -> tuple[str, ...]:
        """Names of the registered tables."""
        return self._database.table_names()

    # ------------------------------------------------------------------
    # Analysis entry points
    # ------------------------------------------------------------------

    def themes(self, table_name: str) -> ThemeSet:
        """The themes of a registered table.

        Resolved once per table *content* and configuration: from this
        engine's memo, else from the installed result cache (where
        another session, another worker or an earlier boot left them),
        else extracted — by one caller, while concurrent ones wait.
        The themes are the same whichever of the three answers.
        """
        return self._resolve_themes(self._database.table(table_name))

    def _resolve_themes(self, table) -> ThemeSet:
        key = ("themes", table.fingerprint(), self._config_digest)
        with self._flights_lock:
            flight = self._theme_flights.setdefault(key, threading.Lock())
        with get_tracer().span("themes.resolve") as span, flight:
            span.set("key_scan_chunks", 0)  # extraction sets what it read
            themes, source = self._themes.get(key), "memo"
            cache = self._map_cache
            if themes is None and cache is not None:
                # A tiered cache promotes a disk hit into memory, so
                # which tier answers has to be asked before the lookup.
                memory = getattr(cache, "memory", None)
                source = "l1" if memory is None or key in memory else "l2"
                themes = cache.get(key)
            if themes is None:
                source = "computed"
                themes = extract_themes(
                    table,
                    config=self._config,
                    builder=self._graph_builder,
                )
                if cache is not None:
                    cache.put(key, themes)
            span.set("source", source)
            self._themes[key] = themes
            return themes

    def map(
        self,
        table_name: str,
        columns: tuple[str, ...],
        k: int | None = None,
        count_mode: str | None = None,
    ) -> DataMap:
        """A one-shot data map over explicit columns (no session)."""
        table = self._database.table(table_name)
        return self._map_builder.build(
            table,
            tuple(columns),
            config=self._config,
            k=k,
            count_mode=count_mode,
        )

    def explore(self, table_name: str) -> Explorer:
        """Start an interactive exploration session over a table."""
        table = self._database.table(table_name)
        return Explorer(
            table,
            config=self._config,
            themes=partial(self._resolve_themes, table),
            graph_builder=self._graph_builder,
            map_builder=self._map_builder,
        )
