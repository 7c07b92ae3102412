"""Shared fixtures for the whole test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs.metrics import get_metrics, set_global_metrics
from repro.obs.trace import get_tracer, set_tracer
from repro.table.column import CategoricalColumn, NumericColumn
from repro.table.table import Table


@pytest.fixture(autouse=True)
def restore_obs_globals():
    """Snapshot and restore the process-global tracer and metric registry
    around every test, so a test may install its own (``reset_metrics()``,
    ``set_tracer``) without leaking it into the next."""
    tracer = get_tracer()
    metrics = get_metrics()
    yield
    set_tracer(tracer)
    set_global_metrics(metrics)


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator."""
    return np.random.default_rng(1234)


@pytest.fixture
def people() -> Table:
    """A small mixed-type table with missing values, used across suites."""
    return Table(
        "people",
        [
            CategoricalColumn.from_labels(
                "name", ["ann", "bob", "cho", "dee", "eli", "fox"]
            ),
            NumericColumn("age", [25.0, 31.0, np.nan, 45.0, 52.0, 38.0]),
            NumericColumn("income", [20.0, 28.0, 31.0, 50.0, np.nan, 40.0]),
            CategoricalColumn.from_labels(
                "city", ["ams", "ams", "nyc", "nyc", "ams", None]
            ),
        ],
    )


@pytest.fixture
def two_blob_table(rng: np.random.Generator) -> tuple[Table, np.ndarray]:
    """120 rows in two well-separated numeric blobs, with planted labels."""
    n = 120
    labels = rng.integers(0, 2, size=n)
    x = np.where(labels == 0, -4.0, 4.0) + rng.normal(0, 0.5, n)
    y = np.where(labels == 0, -4.0, 4.0) + rng.normal(0, 0.5, n)
    table = Table(
        "blobs2", [NumericColumn("x", x), NumericColumn("y", y)]
    )
    return table, labels.astype(np.intp)
