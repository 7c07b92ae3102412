"""The catalog / query endpoint — MonetDB's role in Figure 4.

A :class:`Database` holds named tables and answers the only query shape
Blaeu's engine issues: *Select–Project with optional sampling*
(:class:`SelectProject`).  It also renders those queries as SQL, which is
what the demo shows users they have implicitly written.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.table.csv_io import read_csv
from repro.table.predicates import Everything, Predicate
from repro.table.sampling import SampleCascade, seed_for
from repro.table.table import Table

if TYPE_CHECKING:  # pragma: no cover - layering guard (store sits above)
    from repro.store.stored import StoredTable

__all__ = ["Database", "SelectProject"]

#: "caller did not pass scan_jobs" — distinct from an explicit ``None``
#: (which forces serial scans regardless of ``BLAEU_SCAN_JOBS``).
_SCAN_JOBS_UNSET: int | None = object()  # type: ignore[assignment]


@dataclass(frozen=True)
class SelectProject:
    """The one query shape the mapping engine issues.

    ``SELECT <columns> FROM <table> WHERE <predicate> [SAMPLE <n>]``.
    """

    table: str
    columns: tuple[str, ...] = ()
    predicate: Predicate = field(default_factory=Everything)
    sample: int | None = None

    def to_sql(self) -> str:
        """Render as SQL (MonetDB dialect: trailing ``SAMPLE n``)."""
        if self.columns:
            select_list = ", ".join(f'"{c}"' for c in self.columns)
        else:
            select_list = "*"
        sql = f'SELECT {select_list} FROM "{self.table}"'
        where = self.predicate.to_sql()
        if where != "TRUE":
            sql += f" WHERE {where}"
        if self.sample is not None:
            sql += f" SAMPLE {self.sample}"
        return sql


class Database:
    """An in-process catalog of tables with sampling-aware querying.

    Each registered table gets its own :class:`SampleCascade` so repeated
    queries over nested selections return nested (stable) samples — the
    behaviour Blaeu's multi-scale sampling provides on top of MonetDB.
    """

    def __init__(self, seed: int = 0) -> None:
        self._tables: dict[str, Table] = {}
        self._cascades: dict[str, SampleCascade] = {}
        self._seed = seed
        self._query_log: list[str] = []

    # ------------------------------------------------------------------
    # Catalog management
    # ------------------------------------------------------------------

    def register(self, table: "Table | StoredTable") -> None:
        """Add (or replace) a table in the catalog.

        Store-backed tables (anything exposing a ``cascade()`` factory)
        reuse their *persisted* sampling priorities, so their nested
        samples are identical in every process that opens the store;
        in-memory tables draw a priority permutation here, seeded by
        the catalog seed and the table name — the same in every process.
        """
        self._tables[table.name] = table  # type: ignore[assignment]
        cascade_factory = getattr(table, "cascade", None)
        if callable(cascade_factory):
            self._cascades[table.name] = cascade_factory()
        else:
            rng = np.random.default_rng(seed_for("cascade", self._seed, table.name))
            self._cascades[table.name] = SampleCascade(table.n_rows, rng)

    def load_csv(self, path: str | Path, name: str | None = None) -> Table:
        """Read a CSV file and register it; returns the loaded table."""
        table = read_csv(path, name=name)
        self.register(table)
        return table

    def load_store(
        self,
        path: str | Path,
        name: str | None = None,
        scan_jobs: int | None = _SCAN_JOBS_UNSET,
    ) -> "StoredTable":
        """Open a store directory and register it; returns the table.

        The table's rows stay on disk: queries against it run as chunked
        scans and gathers (see :mod:`repro.store`).  ``scan_jobs`` fans
        those scans over worker processes; unset, the table follows the
        ``BLAEU_SCAN_JOBS`` environment variable.
        """
        from repro.store.stored import StoredTable

        if scan_jobs is _SCAN_JOBS_UNSET:
            table = StoredTable(path, name=name)
        else:
            table = StoredTable(path, name=name, scan_jobs=scan_jobs)
        self.register(table)
        return table

    def drop(self, name: str) -> None:
        """Remove a table from the catalog."""
        self._require(name)
        del self._tables[name]
        del self._cascades[name]

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

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------

    def execute(self, query: SelectProject) -> Table:
        """Run a Select–Project(-Sample) query and log its SQL."""
        table = self._require(query.table)
        self._query_log.append(query.to_sql())

        mask = query.predicate.mask(table)
        indices = np.flatnonzero(mask)
        if query.sample is not None and query.sample < indices.size:
            cascade = self._cascades[query.table]
            indices = cascade.sample(query.sample, indices)
        result = table.take(indices)
        if query.columns:
            result = result.project(list(query.columns))
        return result

    def sample_indices(
        self,
        name: str,
        k: int,
        predicate: Predicate | None = None,
    ) -> np.ndarray:
        """Base-row indices of a stable sample of the selection.

        Unlike :meth:`execute`, the caller gets positions in the *base*
        table, which the engine needs to relate sampled clusters back to
        full-table rows.
        """
        table = self._require(name)
        cascade = self._cascades[name]
        selection = None
        if predicate is not None and not isinstance(predicate, Everything):
            selection = predicate.mask(table)
        return cascade.sample(k, selection)

    @property
    def query_log(self) -> tuple[str, ...]:
        """SQL text of every executed query, oldest first."""
        return tuple(self._query_log)

    def _require(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise KeyError(
                f"no table {name!r} in catalog; "
                f"available: {list(self._tables)}"
            ) from None
