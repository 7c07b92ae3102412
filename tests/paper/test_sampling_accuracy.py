"""§3 claim — "the loss of accuracy [from sampling] is minimal".

Blaeu clusters a few-thousand-tuple sample instead of the full
selection.  What that costs: for growing sample sizes, build a map of
the LOFAR-scale catalog from the sample, label *every* tuple with its
map region, and compare (ARI) against the reference map built with a
budget that covers the whole table.

The approximate counts a sampled map answers with first carry a 95 %
``n_rows_error`` bound; the coverage test checks that bound against the
exact counts the refinement pass produces.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from oracles import adjusted_rand_index
from repro.core.config import BlaeuConfig
from repro.core.pipeline import build_map, refine_exact
from repro.datasets.lofar import lofar
from synthetic import numeric_blobs

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


#: Config seeds per sample size: each seeds one map's sample.
COVERAGE_SEEDS = range(40)

#: z of the one-sided 99 % bound.
_Z99 = 2.326


def _wilson_upper(inside: int, total: int) -> float:
    """One-sided 99 % Wilson upper bound of the share ``inside / total``."""
    share = inside / total
    z2 = _Z99 * _Z99
    centre = share + z2 / (2 * total)
    spread = _Z99 * math.sqrt(
        share * (1 - share) / total + z2 / (4 * total * total)
    )
    return (centre + spread) / (1 + z2 / total)


def _coverage(sample_size: int) -> tuple[int, int]:
    """Regions whose exact count lies in ``n_rows ± n_rows_error``, and
    all regions carrying a bound, over :data:`COVERAGE_SEEDS`."""
    table = numeric_blobs(n_rows=N_ROWS, missing_rate=0.02).table
    columns = tuple(table.column_names)
    inside = total = 0
    for seed in COVERAGE_SEEDS:
        config = BlaeuConfig(map_sample_size=sample_size, seed=seed)
        approximate = build_map(
            table, columns, config=config, count_mode="approximate"
        )
        exact = refine_exact(approximate, table)
        for guess, truth in zip(approximate.root.walk(), exact.root.walk()):
            if guess.n_rows_error is None:  # the root: exact already
                continue
            total += 1
            inside += abs(truth.n_rows - guess.n_rows) <= guess.n_rows_error
    return inside, total


@pytest.mark.parametrize(
    "sample_size",
    [
        500,
        pytest.param(
            2_000,
            marks=pytest.mark.xfail(
                strict=True,
                reason=(
                    "finding: 139 of 160 bounds (86.9 %) cover at the "
                    "default sample size; the counts are extrapolated from "
                    "the sample the tree was fitted on (an independent "
                    "sample covers 155 of 160)"
                ),
            ),
        ),
    ],
)
def test_approximate_count_bounds_cover_the_exact_counts(sample_size):
    """Pooled over the seeds, the 95 % bounds are not significantly
    below 95 % coverage: the one-sided 99 % upper bound reaches 0.95."""
    inside, total = _coverage(sample_size)
    assert total >= 100
    assert _wilson_upper(inside, total) >= 0.95, (inside, total)
