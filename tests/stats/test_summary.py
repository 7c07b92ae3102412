"""``present_summary`` over parts equals NumPy over their concatenation.

Equality is by ``repr``: bit for bit, signed zeros and NaN included.
The reference is NumPy's own reductions on the concatenated array —
what a highlight reported when it built that array.
"""

import math
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.summary import (
    PAIRWISE_BLOCK,
    SELECT_MIN,
    pairwise_sum,
    present_summary,
)


def _reference(values: np.ndarray) -> dict[str, float]:
    if values.size == 0:
        return dict.fromkeys(("min", "max", "mean", "median", "std"), math.nan)
    return {
        "min": float(values.min()),
        "max": float(values.max()),
        "mean": float(values.mean()),
        "median": float(np.median(values)),
        "std": float(values.std()),
    }


#: Value shapes: ties, both zeros (also as the extremes), both
#: infinities, NaN, wide magnitudes, sorted runs (a strided probe sees
#: exact quantiles) and a single value repeated (the bracket is one
#: point).
_KINDS = (
    "normal",
    "ties",
    "zeros_and_infs",
    "zero_minimum",
    "zero_maximum",
    "nan",
    "magnitudes",
    "sorted",
    "constant",
)


def _values(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "normal":
        return rng.standard_normal(n)
    if kind == "ties":
        return rng.integers(-3, 4, n).astype(np.float64)
    if kind == "zeros_and_infs":
        return rng.choice([-np.inf, np.inf, 1.5, -2.0, 0.0, -0.0], n)
    if kind == "zero_minimum":
        return rng.choice([0.0, -0.0, 3.0], n)
    if kind == "zero_maximum":
        return rng.choice([0.0, -0.0, -3.0], n)
    if kind == "nan":
        values = rng.standard_normal(n)
        values[rng.random(n) < 0.01] = np.nan
        return values
    if kind == "magnitudes":
        return rng.standard_normal(n) * 10.0 ** rng.integers(-8, 12, n)
    if kind == "sorted":
        return np.sort(rng.standard_normal(n))
    return np.full(n, 2.5)


@st.composite
def _parts(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    n = draw(
        st.one_of(
            st.integers(0, 3 * PAIRWISE_BLOCK),
            st.integers(SELECT_MIN - 3, SELECT_MIN + 3),
            st.integers(2 * SELECT_MIN - 2, 2 * SELECT_MIN + 2),
            st.integers(SELECT_MIN, 40_000),
        )
    )
    values = _values(draw(st.sampled_from(_KINDS)), n, rng)
    cuts = np.sort(rng.integers(0, n + 1, draw(st.integers(0, 24))))
    return values, np.split(values, cuts)


@settings(max_examples=300, deadline=None)
@given(case=_parts())
def test_summary_is_numpys_on_the_concatenation(case):
    values, parts = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # inf - inf
        assert repr(present_summary(parts)) == repr(_reference(values))


@settings(max_examples=200, deadline=None)
@given(case=_parts())
def test_pairwise_sum_splits_where_numpy_does(case):
    values, parts = case
    parts = [part for part in parts if part.size]
    if not parts:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert repr(pairwise_sum(parts)) == repr(np.add.reduce(values))


def test_even_median_is_the_mean_of_the_two_middle_values():
    rng = np.random.default_rng(0)
    values = rng.permutation(np.arange(2 * SELECT_MIN, dtype=np.float64)) + 0.5
    summary = present_summary(np.array_split(values, 7))
    assert summary["median"] == float(np.median(values)) == SELECT_MIN


def test_signed_zero_medians_match_numpy():
    for middle in (0.0, -0.0):
        values = np.concatenate(
            [np.full(SELECT_MIN, -1.0), [middle, -middle], np.full(SELECT_MIN, 1.0)]
        )
        summary = present_summary(np.array_split(values, 5))
        assert repr(summary["median"]) == repr(float(np.median(values)))


def test_a_probe_that_misses_the_middle_falls_back_to_numpy():
    # Every 8th value is large, and 8 is the probe's stride at this size:
    # the probe sees only large values, so its bracket misses the middle.
    n = 8 * SELECT_MIN
    rows = np.arange(n, dtype=np.float64)
    values = np.where(rows % 8 == 0, rows + 10.0 * n, rows)
    summary = present_summary([values])
    assert repr(summary["median"]) == repr(float(np.median(values)))
