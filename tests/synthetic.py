"""Synthetic test tables with known ground truth.

The engine never generates these: the tests build their tables from
them.  Two families cover the engine's two clustering axes:

* :func:`numeric_blobs` / :func:`mixed_blobs` — *horizontal* ground
  truth: Gaussian blobs (optionally with cluster-correlated categorical
  columns, missing values and noise columns) for evaluating map quality;
* :func:`planted_themes` — *vertical* ground truth: groups of columns
  driven by shared latent factors, independent across groups, for
  evaluating theme recovery.

Every generator takes a seed and returns plain tables plus the planted
labels, so experiments are reproducible bit for bit.  :func:`oecd_small`
is a fast, narrow variant of the OECD demo table.
"""

from __future__ import annotations

import functools
import string
from dataclasses import dataclass

import numpy as np

from repro.datasets.oecd import oecd
from repro.table.column import CategoricalColumn, NumericColumn
from repro.table.table import Table

__all__ = [
    "PlantedClusters",
    "PlantedThemes",
    "numeric_blobs",
    "mixed_blobs",
    "planted_themes",
    "oecd_small",
]


@dataclass(frozen=True)
class PlantedClusters:
    """A table with known row-cluster structure."""

    table: Table
    labels: np.ndarray
    centers: np.ndarray

    @property
    def k(self) -> int:
        """Number of planted clusters."""
        return int(self.centers.shape[0])


@dataclass(frozen=True)
class PlantedThemes:
    """A table with known column-group structure."""

    table: Table
    groups: dict[str, tuple[str, ...]]

    def theme_of(self, column: str) -> str:
        """The planted theme name of ``column``."""
        for name, columns in self.groups.items():
            if column in columns:
                return name
        raise KeyError(f"column {column!r} belongs to no planted theme")

    def column_labels(self, columns: tuple[str, ...]) -> np.ndarray:
        """Integer theme label per column, aligned with ``columns``."""
        names = list(self.groups)
        return np.asarray(
            [names.index(self.theme_of(c)) for c in columns], dtype=np.intp
        )


def numeric_blobs(
    n_rows: int = 600,
    k: int = 3,
    n_features: int = 4,
    spread: float = 0.6,
    center_box: float = 4.0,
    n_noise_features: int = 0,
    missing_rate: float = 0.0,
    weights: tuple[float, ...] | None = None,
    seed: int = 7,
    name: str = "blobs",
) -> PlantedClusters:
    """Gaussian blobs with optional noise features and missing cells.

    Parameters
    ----------
    n_rows, k, n_features:
        Shape of the data.
    spread:
        Per-cluster standard deviation (smaller = crisper clusters).
    center_box:
        Cluster centers are drawn uniformly from ``[-box, box]^d``.
    n_noise_features:
        Extra standard-normal columns carrying no cluster signal.
    missing_rate:
        Independent per-cell missingness probability.
    weights:
        Relative cluster sizes (default: equal).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not 0.0 <= missing_rate < 1.0:
        raise ValueError(f"missing_rate must be in [0, 1), got {missing_rate}")
    rng = np.random.default_rng(seed)
    if weights is None:
        proportions = np.full(k, 1.0 / k)
    else:
        if len(weights) != k or min(weights) <= 0:
            raise ValueError("weights must be k positive numbers")
        proportions = np.asarray(weights, dtype=np.float64)
        proportions = proportions / proportions.sum()

    centers = rng.uniform(-center_box, center_box, size=(k, n_features))
    labels = rng.choice(k, size=n_rows, p=proportions)
    data = centers[labels] + rng.normal(0.0, spread, size=(n_rows, n_features))
    if n_noise_features:
        noise = rng.normal(0.0, 1.0, size=(n_rows, n_noise_features))
        data = np.hstack([data, noise])

    columns = []
    total_features = n_features + n_noise_features
    for j in range(total_features):
        values = data[:, j].copy()
        if missing_rate > 0.0:
            holes = rng.random(n_rows) < missing_rate
            values[holes] = np.nan
        prefix = "x" if j < n_features else "noise"
        index = j if j < n_features else j - n_features
        columns.append(NumericColumn(f"{prefix}{index}", values))
    return PlantedClusters(
        table=Table(name, columns),
        labels=labels.astype(np.intp),
        centers=centers,
    )


def mixed_blobs(
    n_rows: int = 600,
    k: int = 3,
    n_numeric: int = 3,
    n_categorical: int = 2,
    category_fidelity: float = 0.85,
    spread: float = 0.6,
    missing_rate: float = 0.0,
    seed: int = 11,
    name: str = "mixed_blobs",
) -> PlantedClusters:
    """Blobs with categorical columns that agree with the cluster.

    Each categorical column has one label per cluster; a cell carries its
    cluster's label with probability ``category_fidelity`` and a random
    other label otherwise — mixed-type data with a single coherent
    cluster structure, the exact shape Blaeu's preprocessing targets.
    """
    if not 0.0 < category_fidelity <= 1.0:
        raise ValueError("category_fidelity must be in (0, 1]")
    base = numeric_blobs(
        n_rows=n_rows,
        k=k,
        n_features=n_numeric,
        spread=spread,
        missing_rate=missing_rate,
        seed=seed,
        name=name,
    )
    rng = np.random.default_rng(seed + 1)
    letters = string.ascii_uppercase
    columns = list(base.table.columns)
    for c in range(n_categorical):
        labels: list[str | None] = []
        for row in range(n_rows):
            cluster = int(base.labels[row])
            if rng.random() < category_fidelity:
                chosen = cluster
            else:
                chosen = int(rng.integers(0, k))
            label = f"{letters[c % len(letters)]}{chosen}"
            if missing_rate > 0.0 and rng.random() < missing_rate:
                labels.append(None)
            else:
                labels.append(label)
        columns.append(CategoricalColumn.from_labels(f"cat{c}", labels))
    return PlantedClusters(
        table=Table(name, columns),
        labels=base.labels,
        centers=base.centers,
    )


def planted_themes(
    n_rows: int = 500,
    group_sizes: dict[str, int] | None = None,
    noise: float = 0.35,
    missing_rate: float = 0.0,
    seed: int = 13,
    name: str = "themed",
) -> PlantedThemes:
    """Columns in latent-factor groups: the vertical ground truth.

    Every group ``g`` has a latent standard-normal factor ``z_g``; each of
    its columns is ``a · z_g + noise`` with a random non-degenerate
    loading ``a``.  Columns inside a group are strongly mutually
    dependent; columns across groups are independent — exactly the
    structure the dependency graph + PAM should recover as themes.
    """
    if group_sizes is None:
        group_sizes = {"economy": 4, "health": 4, "environment": 4}
    if not group_sizes or min(group_sizes.values()) < 1:
        raise ValueError("group_sizes must map names to positive counts")
    rng = np.random.default_rng(seed)

    columns = []
    groups: dict[str, tuple[str, ...]] = {}
    for group_name, size in group_sizes.items():
        factor = rng.normal(0.0, 1.0, size=n_rows)
        names = []
        for j in range(size):
            loading = rng.uniform(0.7, 1.3) * rng.choice([-1.0, 1.0])
            values = loading * factor + rng.normal(0.0, noise, size=n_rows)
            if missing_rate > 0.0:
                holes = rng.random(n_rows) < missing_rate
                values = values.copy()
                values[holes] = np.nan
            column_name = f"{group_name}_{j}"
            names.append(column_name)
            columns.append(NumericColumn(column_name, values))
        groups[group_name] = tuple(names)
    return PlantedThemes(table=Table(name, columns), groups=groups)


def numeric_columns(table: Table) -> list[NumericColumn]:
    """The table's numeric columns, in table order."""
    return [c for c in table.columns if isinstance(c, NumericColumn)]


@functools.cache
def _oecd() -> Table:
    """The full :func:`~repro.datasets.oecd.oecd` table, built once per
    session; :func:`oecd_small` gathers copies of its rows."""
    return oecd()


def oecd_small(n_rows: int = 900) -> Table:
    """A fast-to-map slice of :func:`~repro.datasets.oecd.oecd` for
    tests: its first ``n_rows`` rows and 39 of its columns — the id and
    theme columns, three filler groups of eight indicators and three
    misc indices — so the same planted structure."""
    table = _oecd()
    fillers = [
        f"{base} Indicator {j}"
        for base in ("Education", "Housing", "Environment")
        for j in range(1, 9)
    ]
    misc = [f"Misc Index {m}" for m in (1, 2, 3)]
    names = [*table.column_names[:12], *fillers, *misc]
    return table.project(names).take(np.arange(n_rows), name="countries_small")
