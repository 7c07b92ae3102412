"""One distance, one dtype, one dependency measure, one graph width.

Every entry point clusters with Euclidean distances in float64 and
weights the dependency graph with mutual information in one serial
loop, so no clustering or graph function offers another choice.  A
selector parameter that came back on a plain def would be a defaulted
parameter no live call passes, which the parameter check of
``tests/test_reachability.py`` fails on.  That check reads ``def``
signatures only, and it trusts every def whose name live code loads as
a value, so two places need a check of their own: the fields of the
frozen dataclass :class:`ClusterParams` (no ``def`` declares them) and
``GraphBuilder.build`` (``guide/prefetch.py`` loads an ``action.build``
as a value, so every method named ``build`` counts as passed
everything).  The other checks hold the rest of the line: the scorer
``select_k_points`` takes is the caller's, and the modules that served
the alternatives stay gone.  (The retired config fields are checked with
the digest, in ``tests/core/test_map_cache.py``.)
"""

from __future__ import annotations

import importlib.util
import inspect

import pytest

from repro.cluster.kselect import select_k_points
from repro.cluster.stages import ClusterParams
from repro.graph.dependency import GraphBuilder

#: The parameters that selected an alternative path.
SELECTORS = {"metric", "dtype", "measure", "n_bins", "n_jobs"}


@pytest.mark.parametrize(
    "function",
    [ClusterParams, GraphBuilder.build],
    ids=lambda function: function.__qualname__,
)
def test_no_function_takes_a_selector(function):
    """Where the parameter check cannot see a selector come back."""
    assert SELECTORS.isdisjoint(inspect.signature(function).parameters)


def test_select_k_points_scores_only_with_the_callers_scorer():
    """The map pipeline hands ``select_k_points`` its own
    :class:`SharedSilhouette`, so the parameters that built one inside
    it are gone, and the scorer is required."""
    parameters = inspect.signature(select_k_points).parameters
    gone = {"n_subsamples", "subsample_size", "exact_threshold", "rng"}
    assert gone.isdisjoint(parameters)
    shared = parameters["shared"]
    assert shared.kind is inspect.Parameter.KEYWORD_ONLY
    assert shared.default is inspect.Parameter.empty


@pytest.mark.parametrize(
    "module", ["repro.cluster.parallel", "repro.stats.correlation"]
)
def test_the_alternatives_modules_are_gone(module):
    assert importlib.util.find_spec(module) is None
