"""§3 claim — the silhouette picks the "right" number of clusters.

"We generate several partitionings with different numbers of clusters,
and keep the one with the best score."  Plants k ∈ {2..6} blob
structures and counts how often the silhouette-driven selection
recovers the planted k, across seeds — the success metric of the
paper's model-selection procedure.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.distance import pairwise_distances
from repro.cluster.kselect import select_k

PLANTED_KS = (2, 3, 4, 5, 6)
SEEDS = range(5)


def _planted(true_k: int, seed: int) -> np.ndarray:
    """Blobs on a ring: guaranteed pairwise-separated planted clusters.

    Random-box centers can overlap at larger k, making the planted k
    unrecoverable *in principle*; the claim under test is the selector,
    not the generator, so separation is enforced.
    """
    rng = np.random.default_rng(1000 * true_k + seed)
    angles = np.linspace(0.0, 2.0 * np.pi, true_k, endpoint=False)
    centers = 8.0 * np.column_stack(
        [np.cos(angles), np.sin(angles), np.zeros(true_k)]
    )
    labels = rng.integers(0, true_k, 240)
    return centers[labels] + rng.normal(0.0, 0.5, (240, 3))


def test_silhouette_selection_recovers_the_planted_k():
    trials = [(true_k, seed) for true_k in PLANTED_KS for seed in SEEDS]
    hits = 0
    for true_k, seed in trials:
        distances = pairwise_distances(_planted(true_k, seed))
        hits += select_k(distances, k_values=(2, 3, 4, 5, 6, 7)).k == true_k
    assert hits >= 0.8 * len(trials), hits
