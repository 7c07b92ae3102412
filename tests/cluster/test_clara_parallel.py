"""CLARA's seed contract."""

import numpy as np
import pytest

from repro.cluster.clara import clara


def _blobs(seed=0, n_per=500):
    rng = np.random.default_rng(seed)
    centers = ((-8, 0), (8, 0), (0, 10), (0, -10))
    return np.vstack([
        rng.normal(0, 0.6, (n_per, 2)) + np.asarray(c) for c in centers
    ])


def _run(points, seed=42):
    return clara(points, 4, n_draws=5, sample_size=60, rng=np.random.default_rng(seed))


class TestSeedContract:
    def test_different_seeds_still_differ(self):
        # Guard against the degenerate "determinism" of ignoring the RNG.
        points = _blobs(seed=5, n_per=300)
        a = _run(points, seed=1)
        b = _run(points, seed=2)
        assert not np.array_equal(a.medoids, b.medoids) or a.cost != b.cost

    def test_a_generator_is_required(self):
        with pytest.raises(TypeError):
            clara(_blobs(n_per=20), 2)  # type: ignore[call-arg]

