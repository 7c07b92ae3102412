"""Scaling utilities for the preprocessing stage.

Blaeu "normalizes the continuous variables" before clustering (§3) so
that no indicator dominates the distance computations by unit alone.
The z-score is NaN-transparent: missing cells stay NaN and statistics
are computed over present cells only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["zscore", "ScalerStats"]


@dataclass(frozen=True)
class ScalerStats:
    """The fitted statistics of a scaler, for inverse transforms."""

    center: float
    scale: float

    def apply(self, values: np.ndarray) -> np.ndarray:
        """``(values - center) / scale`` (scale 0 maps everything to 0)."""
        values = np.asarray(values, dtype=np.float64)
        if self.scale == 0.0:
            out = np.zeros_like(values)
            out[np.isnan(values)] = np.nan
            return out
        return (values - self.center) / self.scale


def zscore(values: np.ndarray) -> tuple[np.ndarray, ScalerStats]:
    """Center to mean 0, scale to (population) standard deviation 1."""
    values = np.asarray(values, dtype=np.float64)
    present = values[~np.isnan(values)]
    if present.size == 0:
        stats = ScalerStats(center=0.0, scale=0.0)
    else:
        stats = ScalerStats(
            center=float(present.mean()), scale=float(present.std())
        )
    return stats.apply(values), stats
