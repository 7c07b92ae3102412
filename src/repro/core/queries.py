"""Navigation → Select-Project SQL (the expressivity claim, §2).

"With Blaeu, our users implicitly formulate and refine Select-Project
queries. … Blaeu quantizes the query space: to refine their queries, the
users need only to consider a few discrete alternatives."

This module renders exploration states as SQL and enumerates the
*quantized query space* of a map — the finite set of queries one click
away — which ``tests/paper/test_expressivity.py`` checks against direct
predicate evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.datamap import DataMap
from repro.table.predicates import And, Everything, Predicate, _quote_identifier
from repro.table.table import Table

__all__ = ["state_to_sql", "QuantizedQuery", "quantized_queries"]


def state_to_sql(
    table_name: str,
    selection: Predicate,
    columns: tuple[str, ...],
) -> str:
    """Render an exploration state as the query it denotes.

    This is the one place a Select–Project query becomes SQL text; its
    identifiers are quoted exactly as the predicates quote theirs.
    """
    if columns:
        select_list = ", ".join(_quote_identifier(c) for c in columns)
    else:
        select_list = "*"
    sql = f"SELECT {select_list} FROM {_quote_identifier(table_name)}"
    where = selection.to_sql()
    if where != "TRUE":
        sql += f" WHERE {where}"
    return sql


@dataclass(frozen=True)
class QuantizedQuery:
    """One element of the quantized query space: a clickable region."""

    region_id: str
    predicate: Predicate
    sql: str
    n_rows: int


def quantized_queries(
    table: Table,
    data_map: DataMap,
    selection: Predicate | None = None,
) -> list[QuantizedQuery]:
    """Every query reachable by one click on ``data_map``.

    One entry per region (internal regions are clickable too — zooming
    into them is legal).  The SQL projects the map's active columns and
    conjoins the map-relative region predicate with the enclosing
    ``selection``.
    """
    selection = selection or Everything()
    out: list[QuantizedQuery] = []
    for region in data_map.regions():
        predicate = And.of(selection, region.predicate)
        out.append(
            QuantizedQuery(
                region_id=region.region_id,
                predicate=predicate,
                sql=state_to_sql(table.name, predicate, data_map.columns),
                n_rows=region.n_rows,
            )
        )
    return out
