"""Unit tests for the one sampling law: content-keyed uniform samples."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.table.sampling import seed_for, uniform_sample


class TestUniformSample:
    def test_size_and_sortedness(self, rng):
        out = uniform_sample(100, 10, rng)
        assert out.shape == (10,)
        assert (np.diff(out) > 0).all()

    def test_oversampling_returns_everything(self, rng):
        assert uniform_sample(5, 10, rng).tolist() == [0, 1, 2, 3, 4]

    def test_zero_sample(self, rng):
        assert uniform_sample(5, 0, rng).size == 0

    def test_negative_rejected(self, rng):
        with pytest.raises(ValueError):
            uniform_sample(5, -1, rng)
        with pytest.raises(ValueError):
            uniform_sample(-5, 1, rng)

    def test_approximately_uniform(self):
        rng = np.random.default_rng(0)
        counts = np.zeros(20)
        for _ in range(600):
            counts[uniform_sample(20, 5, rng)] += 1
        # Each row expected 150 times; allow generous slack.
        assert counts.min() > 90 and counts.max() < 220


def test_seed_for_is_the_same_in_every_interpreter():
    """``str`` hashes are salted per process; a content key is hashed by
    ``repr``, so two interpreters with different hash seeds derive the
    same seed — and so the same sample — from the same key."""
    script = (
        "from repro.table.sampling import seed_for\n"
        "print(seed_for('pipeline', 'fingerprint', ('a', 'b'), 2.5, None))\n"
    )
    outputs = {
        subprocess.run(
            [sys.executable, "-c", script],
            env={
                **os.environ,
                "PYTHONPATH": str(Path(__file__).resolve().parents[2] / "src"),
                "PYTHONHASHSEED": hash_seed,
            },
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        ).stdout
        for hash_seed in ("1", "2")
    }
    assert outputs == {
        f"{seed_for('pipeline', 'fingerprint', ('a', 'b'), 2.5, None)}\n"
    }


def test_seed_for_tells_apart_keys_that_print_differently():
    """Key parts are hashed by ``repr``: a string and a number that read
    alike, and the same parts in another order, are other keys."""
    seeds = {
        seed_for("map", 1),
        seed_for("map", "1"),
        seed_for(1, "map"),
        seed_for("map", 1.0),
        seed_for(("map", 1)),
    }
    assert len(seeds) == 5
    assert seed_for("map", 1) == seed_for("map", 1)
    assert all(0 <= seed < 2**64 for seed in seeds)
