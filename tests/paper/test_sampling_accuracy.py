"""§3 claim — "the loss of accuracy [from sampling] is minimal".

Blaeu clusters a few-thousand-tuple sample instead of the full
selection.  What that costs: for growing sample sizes, build a map of
the LOFAR-scale catalog from the sample, label *every* tuple with its
map region, and compare (ARI) against the reference map built with a
budget that covers the whole table.
"""

from __future__ import annotations

import numpy as np

from oracles import adjusted_rand_index
from repro.core.config import BlaeuConfig
from repro.core.pipeline import build_map
from repro.datasets.lofar import lofar

COLUMNS = ("Flux150MHz", "SpectralIndex", "AngularSize", "Variability")
SAMPLE_SIZES = (250, 500, 1000, 2000, 4000)
N_ROWS = 20_000


def _region_of_every_row(table, sample_size: int) -> np.ndarray:
    data_map = build_map(
        table,
        COLUMNS,
        config=BlaeuConfig(map_sample_size=sample_size, map_k_values=(2, 3, 4)),
        k=4,
    )
    labels = np.full(table.n_rows, -1)
    for position, leaf in enumerate(data_map.leaves()):
        labels[leaf.predicate.mask(table)] = position
    return labels


def test_sampled_maps_track_the_whole_table_map():
    table = lofar(n_rows=N_ROWS)
    reference = _region_of_every_row(table, N_ROWS)
    ari = {
        size: adjusted_rand_index(_region_of_every_row(table, size), reference)
        for size in SAMPLE_SIZES
    }
    # The claim is "loss of accuracy is minimal", not monotonicity —
    # CLARA draws add noise between sample sizes.  Every operating point
    # must track the reference map closely, the paper's few-thousand
    # range especially.
    assert min(ari.values()) > 0.6, ari
    assert (ari[1000] + ari[2000]) / 2 > 0.75, ari
