"""One distance, one dtype, one dependency measure, one graph width.

Every entry point clusters with Euclidean distances in float64 and
weights the dependency graph with mutual information in one serial
loop, so no clustering or graph function offers another choice.  The
reachability guard cannot see such a fork (it follows names, and a fork
is reached through a parameter value), so these checks hold the line:
none of the functions that once took a selector takes one again, and
the modules that served the alternatives stay gone.  (The retired
config fields are checked with the digest, in
``tests/core/test_map_cache.py``.)
"""

from __future__ import annotations

import importlib.util
import inspect

import pytest

from repro.cluster.clara import clara
from repro.cluster.distance import distances_to_points, pairwise_distances
from repro.cluster.kselect import select_k_points
from repro.cluster.silhouette import SharedSilhouette
from repro.cluster.stages import ClusterParams
from repro.graph.codes import gather_codes, resolve_entries
from repro.graph.dependency import GraphBuilder
from repro.stats.batched import pairwise_nmi_matrix

#: The parameters that selected an alternative path.
SELECTORS = {"metric", "dtype", "measure", "n_bins", "n_jobs"}


@pytest.mark.parametrize(
    "function",
    [
        pairwise_distances,
        distances_to_points,
        clara,
        select_k_points,
        SharedSilhouette,
        ClusterParams,
        GraphBuilder.build,
        gather_codes,
        resolve_entries,
        pairwise_nmi_matrix,
    ],
    ids=lambda function: function.__qualname__,
)
def test_no_function_takes_a_selector(function):
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
