"""The Countries-and-Work demo dataset (paper §4.2, second scenario).

"Public data sets from the OECD … economic performance indicators, labor
statistics and well-being indices for more than 1,500 regions belonging
to 31 different countries.  It contains 6,823 rows and 378 columns."

The generator reproduces that shape and plants the structures the
paper's walkthrough (Figure 1) relies on:

* a **labor-conditions theme** — ``% Employees Working Long Hours``,
  ``Average Income``, ``Time Dedicated to Leisure`` — whose rows split
  into the three regions of Figure 1b: long hours (≥ ~20%), short hours
  with high income (Switzerland, Norway, Canada, …) and short hours with
  low income;
* an **unemployment theme** (``Unemployment``, ``Long Term
  Unemployment``, ``Female Unemployment``) partitioning the countries
  differently, so a *projection* reveals an alternative aspect;
* a **health theme** (``%People w/ Health Insurance``, ``Life
  Expectancy``, ``Health Spending``) matching Figure 2's right-hand
  community;
* 36 further latent-factor indicator groups of 10 columns each plus six
  independent misc indicators, filling the table out to 378 columns of
  mutually dependent blocks — the raw material of the theme view.
"""

from __future__ import annotations

import numpy as np

from repro.table.column import CategoricalColumn, NumericColumn
from repro.table.table import Table

__all__ = [
    "oecd",
    "COUNTRIES",
    "LONG_HOURS_COUNTRIES",
    "HIGH_INCOME_COUNTRIES",
    "HIGH_UNEMPLOYMENT_COUNTRIES",
    "LABOR_THEME",
    "UNEMPLOYMENT_THEME",
    "HEALTH_THEME",
]

COUNTRIES = (
    "Australia", "Austria", "Belgium", "Canada", "Chile",
    "Czech Republic", "Denmark", "Estonia", "Finland", "France",
    "Germany", "Greece", "Hungary", "Iceland", "Ireland",
    "Israel", "Italy", "Japan", "Korea", "Luxembourg",
    "Mexico", "Netherlands", "New Zealand", "Norway", "Poland",
    "Portugal", "Slovak Republic", "Slovenia", "Spain", "Sweden",
    "Switzerland",
)

#: Figure 1b's top region: countries where many employees work long hours.
LONG_HOURS_COUNTRIES = frozenset(
    {"Mexico", "Korea", "Japan", "Chile", "Greece", "Israel"}
)

#: Figure 1c's highlighted region: short hours *and* high average income.
HIGH_INCOME_COUNTRIES = frozenset({
    "Switzerland", "Norway", "Canada", "Luxembourg", "Netherlands",
    "Denmark", "Australia", "Sweden", "Iceland", "Ireland", "Germany",
    "Austria", "Belgium", "Finland",
})

#: Figure 1d's projection: the high-unemployment group.
HIGH_UNEMPLOYMENT_COUNTRIES = frozenset({
    "Spain", "Greece", "Portugal", "Slovak Republic", "Ireland",
    "Italy", "France", "Poland",
})

LABOR_THEME = (
    "% Employees Working Long Hours",
    "Average Income",
    "Time Dedicated to Leisure",
)
UNEMPLOYMENT_THEME = (
    "Unemployment",
    "Long Term Unemployment",
    "Female Unemployment",
)
HEALTH_THEME = (
    "%People w/ Health Insurance",
    "Life Expectancy",
    "Health Spending",
)

_EXTRA_GROUP_BASES = (
    "Education", "Housing", "Environment", "Safety", "Transport",
    "Income Distribution", "Civic Engagement", "Innovation", "Tourism",
    "Agriculture", "Energy", "Digital Access", "Demography", "Trade",
    "Public Finance", "Culture", "Migration", "Productivity",
    "Small Business", "Infrastructure", "Water Quality", "Air Quality",
    "Broadband", "Skills", "Patents", "Savings", "Construction",
    "Retail", "Manufacturing", "Services", "Forestry", "Fisheries",
    "Mining", "Utilities", "Logistics", "Research",
)


def oecd() -> Table:
    """Generate the Countries-and-Work table: 6,823 rows of 1,520
    regions, 2 % of every measured cell missing.

    Column count = 3 id columns (CountryName, RegionName, Year)
    + 9 named theme columns + 36 filler groups · 10 indicators
    + 6 misc indices = 378.
    """
    n_rows, n_regions = 6823, 1520
    rng = np.random.default_rng(1961)

    # ------------------------------------------------------------------
    # Rows: regions within countries, observed in some year.
    # ------------------------------------------------------------------
    region_country = rng.integers(0, len(COUNTRIES), size=n_regions)
    row_region = rng.integers(0, n_regions, size=n_rows)
    row_country = region_country[row_region]
    country_names = [COUNTRIES[c] for c in row_country]
    region_names = [
        f"{COUNTRIES[region_country[r]]} Region {r % 99:02d}-{r}"
        for r in row_region
    ]
    years = rng.integers(2010, 2015, size=n_rows).astype(np.float64)

    is_long_hours = np.asarray(
        [COUNTRIES[c] in LONG_HOURS_COUNTRIES for c in row_country]
    )
    is_high_income = np.asarray(
        [COUNTRIES[c] in HIGH_INCOME_COUNTRIES for c in row_country]
    )
    is_high_unemployment = np.asarray(
        [COUNTRIES[c] in HIGH_UNEMPLOYMENT_COUNTRIES for c in row_country]
    )

    # ------------------------------------------------------------------
    # Labor-conditions theme (Figure 1b's three regions).
    # ------------------------------------------------------------------
    long_hours = np.where(
        is_long_hours,
        rng.normal(28.0, 3.0, n_rows),
        rng.normal(11.0, 3.0, n_rows),
    ).clip(0.5, 60.0)
    income = np.where(
        is_long_hours,
        rng.normal(16.0, 3.0, n_rows),
        np.where(
            is_high_income,
            rng.normal(33.0, 3.5, n_rows),
            rng.normal(14.0, 3.0, n_rows),
        ),
    ).clip(4.0, 60.0)
    leisure = (16.0 - 0.12 * long_hours + rng.normal(0.0, 0.5, n_rows)).clip(
        8.0, 17.0
    )

    # ------------------------------------------------------------------
    # Unemployment theme (a *different* country partition).
    # ------------------------------------------------------------------
    unemployment = np.where(
        is_high_unemployment,
        rng.normal(14.0, 3.0, n_rows),
        rng.normal(5.5, 1.8, n_rows),
    ).clip(0.5, 30.0)
    long_term = (0.45 * unemployment + rng.normal(0.0, 0.8, n_rows)).clip(
        0.1, 25.0
    )
    female = (unemployment + rng.normal(0.8, 1.0, n_rows)).clip(0.3, 32.0)

    # ------------------------------------------------------------------
    # Health theme (Figure 2's second community).  Driven by its own
    # country-level latent, independent of the income groups, so the
    # health and labor themes are separable (as in Figure 1a).
    # ------------------------------------------------------------------
    country_health = rng.normal(0.0, 0.6, len(COUNTRIES))
    health_factor = country_health[row_country] + rng.normal(0.0, 0.35, n_rows)
    insurance = (82.0 + 16.0 * health_factor + rng.normal(0, 2.0, n_rows)).clip(
        30.0, 100.0
    )
    life_expectancy = (
        78.0 + 4.0 * health_factor + rng.normal(0, 0.8, n_rows)
    ).clip(65.0, 90.0)
    health_spending = (
        3.2 + 2.4 * health_factor + rng.normal(0, 0.5, n_rows)
    ).clip(0.5, 12.0)

    columns = [
        CategoricalColumn.from_labels("CountryName", country_names),
        CategoricalColumn.from_labels("RegionName", region_names),
        NumericColumn("Year", years),
        NumericColumn(LABOR_THEME[0], _holes(long_hours, rng)),
        NumericColumn(LABOR_THEME[1], _holes(income, rng)),
        NumericColumn(LABOR_THEME[2], _holes(leisure, rng)),
        NumericColumn(
            UNEMPLOYMENT_THEME[0], _holes(unemployment, rng)
        ),
        NumericColumn(
            UNEMPLOYMENT_THEME[1], _holes(long_term, rng)
        ),
        NumericColumn(UNEMPLOYMENT_THEME[2], _holes(female, rng)),
        NumericColumn(HEALTH_THEME[0], _holes(insurance, rng)),
        NumericColumn(
            HEALTH_THEME[1], _holes(life_expectancy, rng)
        ),
        NumericColumn(
            HEALTH_THEME[2], _holes(health_spending, rng)
        ),
    ]

    # ------------------------------------------------------------------
    # Filler indicator groups: shared latent factor per group per country.
    # ------------------------------------------------------------------
    for base in _EXTRA_GROUP_BASES:
        country_factor = rng.normal(0.0, 1.0, len(COUNTRIES))
        factor = country_factor[row_country] + rng.normal(0.0, 0.4, n_rows)
        for j in range(10):
            loading = rng.uniform(0.7, 1.3) * (1 if rng.random() < 0.8 else -1)
            scale = rng.uniform(1.0, 25.0)
            offset = rng.uniform(10.0, 120.0)
            values = offset + scale * (
                loading * factor + rng.normal(0.0, 0.45, n_rows)
            )
            columns.append(
                NumericColumn(
                    f"{base} Indicator {j + 1}",
                    _holes(values, rng),
                )
            )

    for m in range(6):
        values = rng.normal(50.0, 12.0, n_rows)
        columns.append(NumericColumn(f"Misc Index {m + 1}", _holes(values, rng)))

    return Table("countries", columns)


def _holes(values: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Punch independent missing cells (2 %) into a copy of ``values``."""
    out = values.astype(np.float64, copy=True)
    out[rng.random(values.shape[0]) < 0.02] = np.nan
    return out
