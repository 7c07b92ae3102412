"""Stage 1 of the mapping pipeline: preprocessing (paper §3, Figure 3).

"Blaeu removes the primary keys, it normalizes the continuous variables,
and it introduces dummy binary variables to represent the categorical
data (each dummy variable corresponds to one category).  The result of
this operation is a set of vectors, where each vector represents a tuple
in the database."

Additions the paper implies but does not spell out, documented here:

* missing numeric cells are imputed with the column mean (0 after
  z-scoring) so the vectors are NaN-free for Euclidean PAM;
* missing categorical cells become the all-zero dummy block;
* categorical columns whose cardinality exceeds a cap are excluded from
  the feature matrix (a 1,500-label region-name column is a key in
  disguise; dummy-coding it would both explode dimensionality and let
  identity swamp structure).  Excluded columns are reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.stats.normalize import ScalerStats, zscore
from repro.table.column import CategoricalColumn, NumericColumn
from repro.table.schema import detect_keys
from repro.table.table import Table

__all__ = ["FeatureSpace", "preprocess"]


@dataclass(frozen=True)
class FeatureSpace:
    """The vector representation of a table plus the mapping back.

    Attributes
    ----------
    matrix:
        n×d float64 feature matrix, NaN-free.
    feature_names:
        One name per matrix column (``col`` for numeric, ``col=label``
        for dummies).
    numeric_mask:
        Per-feature flag: True for scaled numeric features.
    source_columns:
        Table column behind each feature.
    scalers:
        Fitted normalization statistics per numeric column (for
        inverse-transforming medoid coordinates in reports).
    dropped_keys:
        Columns removed as primary keys.
    dropped_wide:
        Categorical columns excluded for excessive cardinality.
    """

    matrix: np.ndarray
    feature_names: tuple[str, ...]
    numeric_mask: np.ndarray
    source_columns: tuple[str, ...]
    scalers: dict[str, ScalerStats] = field(default_factory=dict)
    dropped_keys: tuple[str, ...] = ()
    dropped_wide: tuple[str, ...] = ()

    @property
    def n_rows(self) -> int:
        """Number of vectors (table rows)."""
        return int(self.matrix.shape[0])

    @property
    def used_columns(self) -> tuple[str, ...]:
        """Table columns that contributed at least one feature."""
        seen: list[str] = []
        for source in self.source_columns:
            if source not in seen:
                seen.append(source)
        return tuple(seen)


def preprocess(
    table: Table,
    columns: tuple[str, ...] | None = None,
    max_categorical_cardinality: int = 50,
) -> FeatureSpace:
    """Turn (a column subset of) a table into clustering vectors.

    Parameters
    ----------
    table:
        Source rows (typically the interaction-time sample).
    columns:
        Columns to encode (default: all).  Primary-key detection runs
        on them, and the detected key columns are removed.
    max_categorical_cardinality:
        Exclusion cap for wide categoricals (see module docstring).
    """
    names = list(columns) if columns is not None else list(table.column_names)
    for name in names:
        table.column(name)  # fail fast on unknown columns

    dropped_keys = detect_keys(table, names)
    names = [n for n in names if n not in dropped_keys]

    blocks: list[np.ndarray] = []
    feature_names: list[str] = []
    numeric_flags: list[bool] = []
    source_columns: list[str] = []
    scalers: dict[str, ScalerStats] = {}
    dropped_wide: list[str] = []

    for name in names:
        column = table.column(name)
        if isinstance(column, NumericColumn):
            scaled, stats = zscore(column.values)
            scaled = np.nan_to_num(scaled, nan=0.0)  # mean imputation
            blocks.append(scaled[:, None])
            feature_names.append(name)
            numeric_flags.append(True)
            source_columns.append(name)
            scalers[name] = stats
        elif isinstance(column, CategoricalColumn):
            compacted = column.compact()
            categories = compacted.categories
            if len(categories) > max_categorical_cardinality:
                dropped_wide.append(name)
                continue
            if not categories:
                # all-missing column: contributes nothing
                dropped_wide.append(name)
                continue
            dummies = np.zeros(
                (len(compacted), len(categories)), dtype=np.float64
            )
            present = compacted.present_mask
            rows = np.flatnonzero(present)
            dummies[rows, compacted.codes[rows]] = 1.0
            blocks.append(dummies)
            for label in categories:
                feature_names.append(f"{name}={label}")
                numeric_flags.append(False)
                source_columns.append(name)
        else:  # pragma: no cover - only two column kinds exist
            raise TypeError(f"unsupported column type {type(column).__name__}")

    if not blocks:
        raise ValueError(
            "preprocessing produced no features: all candidate columns were "
            f"keys ({list(dropped_keys)}) or too wide ({dropped_wide})"
        )
    matrix = np.hstack(blocks)
    return FeatureSpace(
        matrix=matrix,
        feature_names=tuple(feature_names),
        numeric_mask=np.asarray(numeric_flags, dtype=bool),
        source_columns=tuple(source_columns),
        scalers=scalers,
        dropped_keys=dropped_keys,
        dropped_wide=tuple(dropped_wide),
    )
