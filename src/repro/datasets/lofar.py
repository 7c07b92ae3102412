"""The LOFAR demo dataset (paper §4.2, third scenario).

"The LOFAR database is the result of a large-scale radio astronomy
experiment in the Netherlands.  It describes the positional and physical
properties of light sources (e.g., stars) … we expect it to contain
100,000s of tuples and several dozens variables."

The generator emits a sky-survey catalog with four planted source
populations (compact steep-spectrum sources, extended lobed sources,
flat-spectrum compact cores, and transients) expressed through flux
densities at several frequencies, spectral indices, angular sizes and
variability measures — enough correlated physics for themes *and* enough
rows to exercise the CLARA / sampling path.
"""

from __future__ import annotations

import numpy as np

from repro.table.column import CategoricalColumn, NumericColumn
from repro.table.table import Table

__all__ = ["lofar", "LOFAR_POPULATIONS"]

#: Planted source populations, in cluster-id order.
LOFAR_POPULATIONS = (
    "compact_steep",
    "extended_lobed",
    "flat_core",
    "transient",
)


def lofar(n_rows: int = 200_000) -> Table:
    """Generate the LOFAR light-source catalog (~20 columns, 1.5 % of
    the measured cells missing).

    The default 200k rows matches the paper's "100,000s of tuples"; tests
    use far fewer via the ``n_rows`` parameter.
    """
    rng = np.random.default_rng(151)
    population = rng.choice(4, size=n_rows, p=[0.42, 0.28, 0.22, 0.08])

    # Position: uniform on the northern sky (LOFAR's footprint).
    ra = rng.uniform(0.0, 360.0, n_rows)
    dec = np.degrees(np.arcsin(rng.uniform(0.0, 1.0, n_rows)))

    # Spectral behaviour per population.
    spectral_index = np.select(
        [population == 0, population == 1, population == 2, population == 3],
        [
            rng.normal(-0.9, 0.15, n_rows),   # steep
            rng.normal(-0.75, 0.2, n_rows),   # lobed, steep-ish
            rng.normal(-0.1, 0.15, n_rows),   # flat cores
            rng.normal(-0.4, 0.35, n_rows),   # transients, varied
        ],
    )
    log_flux_150 = np.select(
        [population == 0, population == 1, population == 2, population == 3],
        [
            rng.normal(0.0, 0.5, n_rows),
            rng.normal(0.8, 0.5, n_rows),
            rng.normal(-0.3, 0.4, n_rows),
            rng.normal(-0.6, 0.5, n_rows),
        ],
    )
    flux_150 = 10.0**log_flux_150
    # Power-law spectra: S(nu) = S_150 * (nu / 150)^alpha, with noise.
    flux_120 = flux_150 * (120.0 / 150.0) ** spectral_index
    flux_180 = flux_150 * (180.0 / 150.0) ** spectral_index
    flux_1400 = flux_150 * (1400.0 / 150.0) ** spectral_index
    for flux in (flux_120, flux_180, flux_1400):
        flux *= rng.lognormal(0.0, 0.05, n_rows)

    angular_size = np.select(
        [population == 0, population == 1, population == 2, population == 3],
        [
            rng.lognormal(0.3, 0.4, n_rows),   # arcsec, compact
            rng.lognormal(2.6, 0.5, n_rows),   # extended
            rng.lognormal(0.1, 0.3, n_rows),   # very compact
            rng.lognormal(0.2, 0.5, n_rows),
        ],
    )
    axis_ratio = np.where(
        population == 1,
        rng.uniform(1.5, 5.0, n_rows),
        rng.uniform(1.0, 1.8, n_rows),
    )
    variability = np.where(
        population == 3,
        rng.uniform(0.3, 1.0, n_rows),
        rng.uniform(0.0, 0.12, n_rows),
    )
    snr = flux_150 / rng.lognormal(-2.2, 0.3, n_rows)
    n_detections = np.clip(
        np.round(rng.normal(9, 3, n_rows) - 4 * variability), 1, 15
    )

    morphology = [
        LOFAR_POPULATIONS[p].split("_")[0] for p in population
    ]  # compact / extended / flat / transient
    field_names = [f"Field {int(f):03d}" for f in rng.integers(0, 60, n_rows)]

    def punch(values: np.ndarray) -> np.ndarray:
        out = values.astype(np.float64, copy=True)
        out[rng.random(n_rows) < 0.015] = np.nan
        return out

    columns = [
        CategoricalColumn.from_labels(
            "SourceID", [f"LOF-{i:07d}" for i in range(n_rows)]
        ),
        CategoricalColumn.from_labels("Field", field_names),
        NumericColumn("RA", np.round(ra, 5)),
        NumericColumn("Dec", np.round(dec, 5)),
        NumericColumn("Flux120MHz", punch(np.round(flux_120, 4))),
        NumericColumn("Flux150MHz", punch(np.round(flux_150, 4))),
        NumericColumn("Flux180MHz", punch(np.round(flux_180, 4))),
        NumericColumn("Flux1400MHz", punch(np.round(flux_1400, 4))),
        NumericColumn("SpectralIndex", punch(np.round(spectral_index, 3))),
        NumericColumn("AngularSize", punch(np.round(angular_size, 3))),
        NumericColumn("AxisRatio", punch(np.round(axis_ratio, 3))),
        NumericColumn("Variability", punch(np.round(variability, 4))),
        NumericColumn("SNR", punch(np.round(snr, 2))),
        NumericColumn("NDetections", n_detections),
        CategoricalColumn.from_labels("Morphology", morphology),
    ]
    return Table("lofar", columns)
