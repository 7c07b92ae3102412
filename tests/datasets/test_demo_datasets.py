"""Unit tests for the three demo dataset generators (paper §4.2)."""

import numpy as np
import pytest

from repro.datasets.hollywood import hollywood
from repro.datasets.lofar import lofar
from repro.datasets.oecd import (
    COUNTRIES,
    HIGH_INCOME_COUNTRIES,
    LABOR_THEME,
    LONG_HOURS_COUNTRIES,
    oecd,
)
from repro.table.column import CategoricalColumn, NumericColumn
from synthetic import oecd_small


class TestHollywood:
    def test_paper_shape(self):
        table = hollywood()
        assert table.n_rows == 900
        assert table.n_columns == 12

    def test_years_in_paper_range(self):
        table = hollywood()
        years = table.column("Year")
        assert years.min() >= 2007 and years.max() <= 2013

    def test_profitability_consistent(self):
        table = hollywood()
        budget = table.column("Budget").values
        gross = table.column("WorldwideGross").values
        profit = table.column("Profitability").values
        np.testing.assert_allclose(profit, gross / budget, rtol=0.02)

    def test_segments_create_separable_structure(self):
        # Indie hits are more profitable than flops by construction.
        table = hollywood()
        profit = table.column("Profitability").values
        critics = table.column("RottenTomatoes").values
        good = profit > 2.0
        complete = ~np.isnan(critics)
        assert (
            critics[good & complete].mean()
            > critics[~good & complete].mean()
        )

    def test_review_scores_have_missing_cells(self):
        table = hollywood()
        assert table.column("RottenTomatoes").n_missing > 0

    def test_seeded(self):
        assert (
            hollywood().column("Budget").values.tolist()
            == hollywood().column("Budget").values.tolist()
        )


class TestOecd:
    @pytest.mark.slow
    def test_paper_shape(self):
        table = oecd()
        assert table.n_rows == 6823
        assert table.n_columns == 378

    def test_small_variant_is_a_slice_of_the_full_table(self):
        small, full = oecd_small(), oecd()
        assert set(small.column_names) < set(full.column_names)
        for name in small.column_names:
            column = full.column(name)
            if isinstance(column, NumericColumn):
                np.testing.assert_array_equal(
                    small.column(name).values, column.values[:900]
                )
            else:
                assert small.column(name).labels() == column.labels()[:900]

    def test_small_variant_structure(self):
        table = oecd_small()
        assert table.n_rows == 900
        country = table.column("CountryName")
        assert isinstance(country, CategoricalColumn)
        assert country.n_distinct() == 31
        assert set(country.categories) == set(COUNTRIES)

    def test_figure1_labor_structure(self):
        table = oecd_small(n_rows=3000)
        hours = table.column(LABOR_THEME[0]).values
        income = table.column(LABOR_THEME[1]).values
        country = table.column("CountryName")
        labels = np.asarray(country.labels())
        long_hours = np.isin(labels, list(LONG_HOURS_COUNTRIES))
        high_income = np.isin(labels, list(HIGH_INCOME_COUNTRIES))
        complete = ~np.isnan(hours) & ~np.isnan(income)
        # Long-hours countries sit above ~20%; the rest below.
        assert np.nanmean(hours[long_hours & complete]) > 24
        assert np.nanmean(hours[~long_hours & complete]) < 15
        # High-income countries sit above the 22k$ split of Figure 1b.
        assert np.nanmean(income[high_income & complete]) > 28
        assert (
            np.nanmean(income[~high_income & ~long_hours & complete]) < 18
        )

    def test_missing_values_present(self):
        table = oecd_small()
        assert table.column(LABOR_THEME[0]).n_missing > 0

    def test_region_names_are_wide(self):
        table = oecd_small()
        assert table.column("RegionName").n_distinct() > 100


class TestLofar:
    def test_shape_scales(self):
        table = lofar(n_rows=5000)
        assert table.n_rows == 5000
        assert table.n_columns == 15

    def test_spectral_physics(self):
        # Power-law consistency: flux at 1400 MHz follows the spectral
        # index direction relative to 150 MHz.
        table = lofar(n_rows=4000)
        f150 = table.column("Flux150MHz").values
        f1400 = table.column("Flux1400MHz").values
        alpha = table.column("SpectralIndex").values
        complete = ~(np.isnan(f150) | np.isnan(f1400) | np.isnan(alpha))
        steep = complete & (alpha < -0.5)
        assert (f1400[steep] < f150[steep]).mean() > 0.95

    def test_morphology_tracks_size(self):
        table = lofar(n_rows=4000)
        size = table.column("AngularSize").values
        morphology = np.asarray(table.column("Morphology").labels())
        complete = ~np.isnan(size)
        extended = (morphology == "extended") & complete
        compact = (morphology == "compact") & complete
        assert size[extended].mean() > 3 * size[compact].mean()

    def test_source_id_is_key_like(self):
        table = lofar(n_rows=1000)
        assert table.column("SourceID").n_distinct() == 1000

    def test_positions_cover_northern_sky(self):
        table = lofar(n_rows=3000)
        dec = table.column("Dec")
        assert isinstance(dec, NumericColumn)
        assert dec.min() >= 0.0 and dec.max() <= 90.0
