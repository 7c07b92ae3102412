"""Column-store substrate: Blaeu's MonetDB stand-in.

The paper stores the user's data in MonetDB and pulls samples from it at
interaction time.  This package provides the equivalent laptop-scale
substrate: typed columns with missing-value masks, an immutable
:class:`~repro.table.table.Table` supporting select / project / sample,
a predicate algebra that renders to SQL, CSV ingestion with schema
inference, content-keyed sampling, and a
:class:`~repro.table.database.Database` catalog that plays the role of
the DBMS endpoint.
"""

from repro.table.aggregate import Aggregate, AggregateResult, aggregate
from repro.table.column import (
    CategoricalColumn,
    Column,
    ColumnKind,
    NumericColumn,
)
from repro.table.csv_io import read_csv, write_csv
from repro.table.database import Database
from repro.table.predicates import (
    And,
    Between,
    Comparison,
    Everything,
    In,
    IsMissing,
    Not,
    Or,
    Predicate,
)
from repro.table.sampling import uniform_sample
from repro.table.schema import infer_column
from repro.table.table import Table

__all__ = [
    "Aggregate",
    "AggregateResult",
    "And",
    "Between",
    "aggregate",
    "CategoricalColumn",
    "Column",
    "ColumnKind",
    "Comparison",
    "Database",
    "Everything",
    "In",
    "IsMissing",
    "Not",
    "NumericColumn",
    "Or",
    "Predicate",
    "Table",
    "infer_column",
    "read_csv",
    "uniform_sample",
    "write_csv",
]
