"""The Hollywood demo dataset (paper §4.2, first scenario).

"900 Hollywood movies released between 2007 and 2013 … 12 columns.
Which films are the most profitable?  Which are those that fail?  How do
critics and commercial success relate to each other?"

The generator plants three audience-recognizable segments —
*blockbusters* (huge budgets, huge grosses, mixed reviews), *indie hits*
(small budgets, strong reviews, high profitability) and *flops* (mid
budgets, weak reviews, losses) — so the questions the demo poses have
discoverable answers.
"""

from __future__ import annotations

import numpy as np

from repro.table.column import CategoricalColumn, NumericColumn
from repro.table.table import Table

__all__ = ["hollywood", "HOLLYWOOD_SEGMENTS"]

#: The planted segments, in cluster-id order.
HOLLYWOOD_SEGMENTS = ("blockbuster", "indie_hit", "flop")

_GENRES = {
    "blockbuster": ["Action", "Adventure", "Animation"],
    "indie_hit": ["Drama", "Comedy", "Romance"],
    "flop": ["Thriller", "Comedy", "Horror", "Drama"],
}

_STUDIOS = {
    "blockbuster": ["Disney", "Warner Bros", "Universal", "Paramount"],
    "indie_hit": ["Fox Searchlight", "Lionsgate", "Independent", "Sony Classics"],
    "flop": ["Warner Bros", "Sony", "Universal", "Independent", "Relativity"],
}


def hollywood() -> Table:
    """Generate the Hollywood movies table (12 columns, 900 rows)."""
    n_rows = 900
    rng = np.random.default_rng(2007)
    segments = rng.choice(3, size=n_rows, p=[0.25, 0.35, 0.40])

    titles: list[str] = []
    genres: list[str] = []
    studios: list[str] = []
    years = np.empty(n_rows)
    budgets = np.empty(n_rows)
    domestic = np.empty(n_rows)
    worldwide = np.empty(n_rows)
    critics = np.empty(n_rows)
    audience = np.empty(n_rows)
    theaters = np.empty(n_rows)
    opening = np.empty(n_rows)

    for i in range(n_rows):
        segment = HOLLYWOOD_SEGMENTS[segments[i]]
        titles.append(f"Movie {i:04d}")
        genres.append(str(rng.choice(_GENRES[segment])))
        studios.append(str(rng.choice(_STUDIOS[segment])))
        years[i] = float(rng.integers(2007, 2014))
        if segment == "blockbuster":
            budgets[i] = rng.uniform(90.0, 260.0)
            multiplier = rng.uniform(1.8, 4.5)
            critics[i] = np.clip(rng.normal(58.0, 16.0), 5.0, 99.0)
            audience[i] = np.clip(rng.normal(68.0, 12.0), 10.0, 99.0)
            theaters[i] = rng.uniform(3000.0, 4400.0)
        elif segment == "indie_hit":
            budgets[i] = rng.uniform(1.0, 30.0)
            multiplier = rng.uniform(2.5, 12.0)
            critics[i] = np.clip(rng.normal(78.0, 12.0), 20.0, 100.0)
            audience[i] = np.clip(rng.normal(74.0, 11.0), 20.0, 100.0)
            theaters[i] = rng.uniform(80.0, 1600.0)
        else:  # flop
            budgets[i] = rng.uniform(15.0, 90.0)
            multiplier = rng.uniform(0.15, 1.1)
            critics[i] = np.clip(rng.normal(38.0, 14.0), 2.0, 85.0)
            audience[i] = np.clip(rng.normal(45.0, 13.0), 5.0, 90.0)
            theaters[i] = rng.uniform(800.0, 3200.0)
        worldwide[i] = budgets[i] * multiplier * rng.uniform(0.9, 1.1)
        domestic[i] = worldwide[i] * rng.uniform(0.3, 0.6)
        opening[i] = domestic[i] * rng.uniform(0.18, 0.45)

    # Round the money columns first so Profitability is exactly
    # WorldwideGross / Budget as shipped (internal consistency).
    budgets = np.round(budgets, 1)
    worldwide = np.round(worldwide, 1)
    domestic = np.round(domestic, 1)
    opening = np.round(opening, 1)
    profitability = worldwide / budgets

    # A realistic sprinkle of missing review scores.
    critic_holes = rng.random(n_rows) < 0.03
    audience_holes = rng.random(n_rows) < 0.02
    critics[critic_holes] = np.nan
    audience[audience_holes] = np.nan

    columns = [
        CategoricalColumn.from_labels("Title", titles),
        NumericColumn("Year", years),
        CategoricalColumn.from_labels("Genre", genres),
        CategoricalColumn.from_labels("Studio", studios),
        NumericColumn("Budget", budgets),
        NumericColumn("DomesticGross", domestic),
        NumericColumn("WorldwideGross", worldwide),
        NumericColumn("Profitability", np.round(profitability, 4)),
        NumericColumn("RottenTomatoes", np.round(critics, 0)),
        NumericColumn("AudienceScore", np.round(audience, 0)),
        NumericColumn("TheatersOpening", np.round(theaters, 0)),
        NumericColumn("OpeningWeekend", np.round(opening, 1)),
    ]
    return Table("hollywood", columns)
