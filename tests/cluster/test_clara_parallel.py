"""CLARA's seed contract, and the deterministic fan-out helpers."""

import numpy as np
import pytest

from repro.cluster.clara import clara
from repro.cluster.parallel import map_in_order, resolve_jobs


def _blobs(seed=0, n_per=500):
    rng = np.random.default_rng(seed)
    centers = ((-8, 0), (8, 0), (0, 10), (0, -10))
    return np.vstack([
        rng.normal(0, 0.6, (n_per, 2)) + np.asarray(c) for c in centers
    ])


def _run(points, seed=42, dtype=None):
    return clara(
        points,
        4,
        n_draws=5,
        sample_size=60,
        rng=np.random.default_rng(seed),
        dtype=dtype,
    )


class TestSeedContract:
    def test_different_seeds_still_differ(self):
        # Guard against the degenerate "determinism" of ignoring the RNG.
        points = _blobs(seed=5, n_per=300)
        a = _run(points, seed=1)
        b = _run(points, seed=2)
        assert not np.array_equal(a.medoids, b.medoids) or a.cost != b.cost

    def test_float32_close_to_float64(self):
        points = _blobs(seed=7)
        exact = _run(points)
        approx = _run(points, dtype="float32")
        assert approx.cost == pytest.approx(exact.cost, rel=1e-4)

    def test_a_generator_is_required(self):
        with pytest.raises(TypeError):
            clara(_blobs(n_per=20), 2)  # type: ignore[call-arg]


class TestParallelHelpers:
    def test_resolve_jobs_semantics(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(1) == 1
        assert resolve_jobs(3) == 3
        assert resolve_jobs(0) >= 1  # all cores
        assert resolve_jobs(8, n_items=3) == 3
        assert resolve_jobs(2, n_items=0) == 1

    def test_map_in_order_preserves_order(self):
        items = list(range(20))
        assert map_in_order(lambda x: x * x, items, n_jobs=4) == [
            x * x for x in items
        ]

    def test_map_in_order_serial_default(self):
        calls = []
        map_in_order(calls.append, [1, 2, 3])
        assert calls == [1, 2, 3]

    def test_map_in_order_propagates_errors(self):
        def boom(x):
            raise RuntimeError(f"bad {x}")

        with pytest.raises(RuntimeError, match="bad"):
            map_in_order(boom, [1, 2], n_jobs=2)
