"""§3 claim — sampling keeps latency interactive as tables grow.

"To keep the latency low, our system relies heavily on sampling.  After
each zoom, Blaeu only takes a few thousand samples from the database."
Time is the ledger's to measure (``benchmarks/e2e``); what makes the
claim hold is stated here as work: however large the table, the
clustering stages see the 2,000-tuple budget — the paper's operating
point — while the map still accounts for every row.
"""

from __future__ import annotations

import pytest

from repro.core.config import BlaeuConfig
from repro.core.pipeline import build_map
from repro.datasets.lofar import lofar

COLUMNS = ("Flux150MHz", "SpectralIndex", "AngularSize", "Variability")
BUDGET = 2000


@pytest.mark.parametrize("n_rows", [1_000, 2_000, 10_000, 50_000, 100_000])
def test_clustered_sample_is_the_budget_whatever_the_table_size(n_rows):
    data_map = build_map(
        lofar(n_rows=n_rows),
        COLUMNS,
        config=BlaeuConfig(map_sample_size=BUDGET, map_k_values=(2, 3, 4)),
        k=4,
    )
    assert data_map.sample_size == min(BUDGET, n_rows)
    assert data_map.n_rows == n_rows
    assert sum(leaf.n_rows for leaf in data_map.leaves()) == n_rows
