"""The catalog — MonetDB's role in Figure 4.

A :class:`Database` holds named tables, in memory or on disk, and
answers what the engine asks of the DBMS endpoint: which tables exist,
what each one holds (its content fingerprint and residency), and the
table behind a name.  Queries run on the table itself; the SQL a
navigation path implicitly wrote is rendered by
:func:`repro.core.queries.state_to_sql`.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

from repro.table.csv_io import read_csv
from repro.table.table import Table

if TYPE_CHECKING:  # pragma: no cover - layering guard (store sits above)
    from repro.store.stored import StoredTable

__all__ = ["Database"]


class Database:
    """An in-process catalog of named tables."""

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}

    def register(self, table: "Table | StoredTable") -> None:
        """Add (or replace) a table in the catalog.

        Registering reads nothing: a store-backed table keeps its rows
        on disk and maps no file until a pass or gather needs one.
        """
        self._tables[table.name] = table  # type: ignore[assignment]

    def load_csv(self, path: str | Path, name: str | None = None) -> Table:
        """Read a CSV file and register it; returns the loaded table."""
        table = read_csv(path, name=name)
        self.register(table)
        return table

    def load_store(
        self, path: str | Path, name: str | None = None
    ) -> "StoredTable":
        """Open a store directory and register it; returns the table.

        The table's rows stay on disk: queries against it run as chunked
        scans and gathers (see :mod:`repro.store`).
        """
        from repro.store.stored import StoredTable

        table = StoredTable(path, name=name)
        self.register(table)
        return table

    def drop(self, name: str) -> None:
        """Remove a table from the catalog."""
        self._require(name)
        del self._tables[name]

    def table(self, name: str) -> Table:
        """The registered table called ``name``."""
        return self._require(name)

    def table_names(self) -> tuple[str, ...]:
        """Registered table names, in registration order."""
        return tuple(self._tables)

    def catalog(self) -> list[dict[str, object]]:
        """One record per registered table, content fingerprint included.

        The fingerprint identifies the table *content* (schema + column
        bytes), so clients — and the service's shared map cache — can
        tell whether two names refer to the same data.  ``residency``
        says where the rows live: ``"memory"`` for plain tables,
        ``"store"`` for disk-backed ones (whose fingerprint comes from
        the store manifest in O(1), never from a data re-hash), which
        also report their ``n_partitions``.
        """
        return [
            {
                "name": table.name,
                "n_rows": table.n_rows,
                "n_columns": table.n_columns,
                "fingerprint": table.fingerprint(),
                "residency": table.residency,
                **(
                    {"n_partitions": len(table.partitions)}
                    if table.residency == "store"
                    else {}
                ),
            }
            for table in self._tables.values()
        ]

    def __contains__(self, name: object) -> bool:
        return name in self._tables

    def _require(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise KeyError(
                f"no table {name!r} in catalog; "
                f"available: {list(self._tables)}"
            ) from None
