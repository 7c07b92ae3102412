"""§3 claim — "when the data is too large, Blaeu creates the maps with
CLARA, a sampling-based variant of the PAM algorithm".

CLARA's value proposition is near-PAM clustering cost from a few small
draws.  PAM's optimum is the stronger one, so the ratio CLARA cost /
PAM cost is the penalty paid for sampling; it must stay small as n
grows past what the draws cover (5 draws of 48 points each).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.clara import clara
from repro.cluster.distance import pairwise_distances
from repro.cluster.pam import pam
from synthetic import numeric_blobs, numeric_columns

K = 4


@pytest.mark.parametrize("n", [500, 1000, 2000])
def test_clara_cost_stays_close_to_pam(n):
    blobs = numeric_blobs(n_rows=n, k=K, n_features=6, spread=0.8, seed=n)
    matrix = np.column_stack([c.values for c in numeric_columns(blobs.table)])
    exact = pam(pairwise_distances(matrix), K)
    approx = clara(matrix, K, rng=np.random.default_rng(0))
    assert approx.cost / exact.cost < 1.25
