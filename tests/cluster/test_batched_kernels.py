"""The batched clustering kernels against the one-at-a-time code they replaced.

PAM runs a stack of matrices at once (BUILD and SWAP vectorised over the
runs, the candidates and the medoid positions), CLARA runs all its draws
as that one batch and assigns them to the full data in one call, and the
silhouette scores all its Monte-Carlo subsamples together.  The code
they replaced — a PAM per matrix, a loop over CLARA's draws, a
silhouette per subsample with one column gather per cluster — is kept
here, verbatim, as the reference.  Results must be *equal*: labels,
medoids, cost, SWAP count and silhouette, bit for bit.  The cases are
built to tie (duplicate rows, integer grids) and to hit the edges (k = 1,
k at the sample size, n just past the CLARA threshold).  The distance
kernels run Euclidean in float64; PAM and the silhouette also score
float32 matrices, which they accept as input.
"""

import importlib
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.clara import clara
from repro.cluster.distance import distances_to_points, pairwise_distances
from repro.cluster.pam import Clustering, _build, _swap, pam, pam_batch
from repro.cluster.silhouette import (
    SharedSilhouette,
    mean_silhouette,
    silhouette_samples,
)
from repro.cluster.stages import ClusterParams

# ``repro.cluster`` binds ``pam`` to the function, which hides the module.
pam_module = importlib.import_module("repro.cluster.pam")
CLARA_THRESHOLD = ClusterParams().clara_threshold

# ----------------------------------------------------------------------
# The one-at-a-time kernels, kept verbatim as the reference
# ----------------------------------------------------------------------


def _as_matrix(points, dtype=None):
    points = np.asarray(points, dtype=np.float64 if dtype is None else dtype)
    assert points.ndim == 2
    return points


def _reference_euclidean(points, dtype=None):
    points = _as_matrix(points, dtype)
    squared_norms = (points**2).sum(axis=1)
    gram = points @ points.T
    squared = squared_norms[:, None] + squared_norms[None, :] - 2.0 * gram
    np.maximum(squared, 0.0, out=squared)
    np.sqrt(squared, out=squared)
    np.fill_diagonal(squared, 0.0)
    return squared


def _reference_to_points(points, references):
    points = _as_matrix(points)
    references = _as_matrix(references)
    point_norms = (points**2).sum(axis=1)
    reference_norms = (references**2).sum(axis=1)
    squared = (
        point_norms[:, None]
        + reference_norms[None, :]
        - 2.0 * points @ references.T
    )
    np.maximum(squared, 0.0, out=squared)
    return np.sqrt(squared)


def _reference_pam(distances, k, max_iter=200):
    distances = np.asarray(distances)
    n = distances.shape[0]
    if k == n:
        labels = np.arange(n, dtype=np.intp)
        return Clustering(labels=labels, medoids=labels.copy(), cost=0.0)
    medoids = _reference_build(distances, k)
    medoids, n_swaps = _reference_swap(distances, medoids, max_iter)
    labels, cost = _reference_assign(distances, medoids)
    order = _reference_canonical_order(medoids, labels)
    return Clustering(
        labels=order[labels],
        medoids=medoids[np.argsort(order)],
        cost=cost,
        n_iterations=n_swaps,
    )


def _reference_build(distances, k):
    totals = distances.sum(axis=1)
    medoids = [int(np.argmin(totals))]
    nearest = distances[:, medoids[0]].copy()
    while len(medoids) < k:
        gains = np.maximum(nearest[:, None] - distances, 0.0).sum(axis=0)
        gains[medoids] = -np.inf
        chosen = int(np.argmax(gains))
        medoids.append(chosen)
        np.minimum(nearest, distances[:, chosen], out=nearest)
    return np.asarray(medoids, dtype=np.intp)


def _reference_swap(distances, medoids, max_iter):
    medoids = medoids.copy()
    n = distances.shape[0]
    n_swaps = 0
    for _ in range(max_iter):
        medoid_distances = distances[:, medoids]
        order = np.argsort(medoid_distances, axis=1)
        nearest_idx = order[:, 0]
        d_nearest = medoid_distances[np.arange(n), nearest_idx]
        if medoids.shape[0] > 1:
            second_idx = order[:, 1]
            d_second = medoid_distances[np.arange(n), second_idx]
        else:
            d_second = np.full(n, np.inf)

        best_delta = 0.0
        best_swap = None
        is_medoid = np.zeros(n, dtype=bool)
        is_medoid[medoids] = True
        candidates = np.flatnonzero(~is_medoid)
        if candidates.size == 0:
            break

        d_candidates = distances[:, candidates]  # n x c
        for position in range(medoids.shape[0]):
            loses_medoid = nearest_idx == position
            floor = np.where(loses_medoid, d_second, d_nearest)
            new_d = np.minimum(d_candidates, floor[:, None])
            deltas = new_d.sum(axis=0) - d_nearest.sum()
            best_candidate = int(np.argmin(deltas))
            delta = float(deltas[best_candidate])
            if delta < best_delta - 1e-12:
                best_delta = delta
                best_swap = (position, int(candidates[best_candidate]))

        if best_swap is None:
            break
        position, replacement = best_swap
        medoids[position] = replacement
        n_swaps += 1
    return medoids, n_swaps


def _reference_assign(distances, medoids):
    medoid_distances = distances[:, medoids]
    labels = np.argmin(medoid_distances, axis=1).astype(np.intp)
    for position, medoid in enumerate(medoids):
        labels[medoid] = position
    cost = float(medoid_distances[np.arange(distances.shape[0]), labels].sum())
    return labels, cost


def _reference_canonical_order(medoids, labels):
    k = medoids.shape[0]
    sizes = np.bincount(labels, minlength=k)
    ranking = sorted(range(k), key=lambda c: (-int(sizes[c]), int(medoids[c])))
    order = np.empty(k, dtype=np.intp)
    for new_id, old_id in enumerate(ranking):
        order[old_id] = new_id
    return order


def _reference_clara(points, k, n_draws=5, sample_size=None, rng=None):
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if sample_size is None:
        sample_size = 40 + 2 * k
    sample_size = min(max(sample_size, k), n)
    if sample_size >= n:
        return _reference_pam(_reference_euclidean(points), k)

    def run_draw(draw_rng):
        sample_indices = draw_rng.choice(n, size=sample_size, replace=False)
        sample_indices.sort()
        sample = points[sample_indices]
        sample_result = _reference_pam(_reference_euclidean(sample), k)
        medoid_rows = sample_indices[sample_result.medoids]
        to_medoids = _reference_to_points(points, points[medoid_rows])
        labels = np.argmin(to_medoids, axis=1).astype(np.intp)
        cost = float(to_medoids[np.arange(n), labels].sum())
        return Clustering(
            labels=labels,
            medoids=medoid_rows.astype(np.intp),
            cost=cost,
            n_iterations=sample_result.n_iterations,
        )

    draws = [run_draw(child) for child in rng.spawn(n_draws)]
    best = draws[0]
    for candidate in draws[1:]:
        if candidate.cost < best.cost:
            best = candidate
    order = _reference_canonical_order(best.medoids, best.labels)
    return Clustering(
        labels=order[best.labels],
        medoids=best.medoids[np.argsort(order)],
        cost=best.cost,
        n_iterations=best.n_iterations,
    )


def _reference_silhouette_samples(distances, labels):
    distances = np.asarray(distances)
    labels = np.asarray(labels)
    n = distances.shape[0]
    unique = np.unique(labels)
    if unique.size < 2:
        return np.zeros(n, dtype=np.float64)

    sums = np.zeros((n, unique.size), dtype=np.float64)
    counts = np.zeros(unique.size, dtype=np.float64)
    for position, cluster in enumerate(unique):
        members = labels == cluster
        sums[:, position] = distances[:, members].sum(axis=1)
        counts[position] = members.sum()

    own_position = np.searchsorted(unique, labels)
    own_counts = counts[own_position]
    out = np.zeros(n, dtype=np.float64)

    own_sums = sums[np.arange(n), own_position]
    singleton = own_counts <= 1
    with np.errstate(invalid="ignore", divide="ignore"):
        a = own_sums / np.maximum(own_counts - 1, 1)

    with np.errstate(invalid="ignore", divide="ignore"):
        means = sums / counts[None, :]
    means[np.arange(n), own_position] = np.inf
    b = means.min(axis=1)

    denominator = np.maximum(a, b)
    valid = ~singleton & (denominator > 0)
    out[valid] = (b[valid] - a[valid]) / denominator[valid]
    return np.clip(out, -1.0, 1.0)


def _reference_mean_silhouette(distances, labels):
    values = _reference_silhouette_samples(distances, labels)
    return float(values.mean()) if values.size else 0.0


def _reference_monte_carlo(points, labels, n_subsamples, subsample_size, rng):
    """SharedSilhouette's sampled mode: draws once, then one score."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    subsamples = []
    for _ in range(n_subsamples):
        chosen = rng.choice(n, size=subsample_size, replace=False)
        subsamples.append((chosen, _reference_euclidean(points[chosen])))
    estimates = []
    for chosen, sub_distances in subsamples:
        sub_labels = labels[chosen]
        if np.unique(sub_labels).size < 2:
            continue
        estimates.append(_reference_mean_silhouette(sub_distances, sub_labels))
    if not estimates:
        return 0.0
    return float(np.mean(estimates))


# ----------------------------------------------------------------------
# Cases built to tie
# ----------------------------------------------------------------------


def _points(rng, n, d, shape):
    if shape == "normal":
        return rng.normal(size=(n, d))
    if shape == "grid":  # integer coordinates: many exactly equal distances
        return rng.integers(0, 3, size=(n, d)).astype(np.float64)
    # duplicate rows: zero off-diagonal distances, identical columns
    base = rng.normal(size=(max(1, n // 4), d))
    return base[rng.integers(0, base.shape[0], n)]


_SHAPES = st.sampled_from(["normal", "grid", "duplicates"])
_DTYPES = st.sampled_from([None, "float32"])
_RELAXED = [HealthCheck.too_slow, HealthCheck.data_too_large]


def _same(result, reference):
    assert result.labels.tolist() == reference.labels.tolist()
    assert result.medoids.tolist() == reference.medoids.tolist()
    assert result.labels.dtype == reference.labels.dtype
    assert result.medoids.dtype == reference.medoids.dtype
    assert result.cost == reference.cost
    assert result.n_iterations == reference.n_iterations


@st.composite
def _pam_cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    n = draw(st.integers(1, 60))
    points = _points(rng, n, draw(st.integers(1, 4)), draw(_SHAPES))
    distances = _reference_euclidean(points, dtype=draw(_DTYPES))
    k = draw(st.sampled_from([1, 2, max(1, n - 1), n, draw(st.integers(1, n))]))
    return distances, min(k, n)


@settings(max_examples=150, deadline=None, suppress_health_check=_RELAXED)
@given(case=_pam_cases())
def test_pam_matches_the_reference(case):
    distances, k = case
    _same(pam(distances, k, validate=False), _reference_pam(distances, k))


@st.composite
def _stacks(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    n = draw(st.integers(2, 50))
    d = draw(st.integers(1, 4))
    dtype = draw(_DTYPES)
    stack = np.stack([
        _reference_euclidean(_points(rng, n, d, draw(_SHAPES)), dtype=dtype)
        for _ in range(draw(st.integers(1, 6)))
    ])
    k = draw(st.sampled_from([1, n - 1, draw(st.integers(1, n - 1))]))
    return stack, k, draw(st.sampled_from([1, 2, 200]))


@settings(max_examples=100, deadline=None, suppress_health_check=_RELAXED)
@given(case=_stacks())
def test_every_run_of_a_batch_matches_its_own_pam(case):
    """A converged run is frozen while the others go on, and
    ``MAX_SWAPS`` caps each run on its own."""
    stack, k, max_swaps = case
    with mock.patch.object(pam_module, "MAX_SWAPS", max_swaps):
        medoids, labels, costs, n_swaps = pam_batch(stack, k)
    for run, distances in enumerate(stack):
        reference = _reference_pam(distances, k, max_swaps)
        batched = Clustering(
            labels=labels[run],
            medoids=medoids[run],
            cost=float(costs[run]),
            n_iterations=int(n_swaps[run]),
        )
        _same(batched, reference)


@st.composite
def _clara_cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    # Mostly small inputs; some just past the map pipeline's CLARA cut-over.
    n = draw(
        st.one_of(
            st.integers(2, 300),
            st.integers(CLARA_THRESHOLD + 1, CLARA_THRESHOLD + 60),
        )
    )
    points = _points(rng, n, draw(st.integers(1, 6)), draw(_SHAPES))
    k = draw(st.sampled_from([1, 2, 4, draw(st.integers(1, min(n, 12)))]))
    k = min(k, n)
    # None: the book's 40 + 2k; k: every sample row is a medoid; k + 1
    # and up: k near the sample size; n: sampling is the identity (plain
    # PAM, so only on small inputs).
    sizes = [None, k, k + 1, k + draw(st.integers(2, 20))]
    sample_size = draw(st.sampled_from(sizes + [n] if n <= 300 else sizes))
    return dict(
        points=points,
        k=k,
        n_draws=draw(st.integers(1, 6)),
        sample_size=sample_size,
        seed=draw(st.integers(0, 2**31 - 1)),
    )


@settings(max_examples=80, deadline=None, suppress_health_check=_RELAXED)
@given(case=_clara_cases())
def test_clara_matches_the_per_draw_reference(case):
    seed = case.pop("seed")
    batched = clara(**case, rng=np.random.default_rng(seed))
    reference = _reference_clara(**case, rng=np.random.default_rng(seed))
    _same(batched, reference)


@st.composite
def _reference_sets(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    n = draw(st.integers(1, 2500))
    d = draw(st.integers(1, 40))
    points = _points(rng, n, d, draw(_SHAPES))
    draws, k = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    references = points[rng.integers(0, n, (draws, k))]
    return points, references


@settings(max_examples=60, deadline=None, suppress_health_check=_RELAXED)
@given(case=_reference_sets())
def test_one_assignment_call_matches_a_product_per_draw(case):
    """All draws' medoid sets in one call: still one BLAS product per
    draw (a single product over every draw's medoids is *not* equal —
    with one medoid per draw it even swaps a matrix-vector kernel for a
    matrix-matrix one)."""
    points, references = case
    stacked = distances_to_points(points, references)
    for run, medoids in enumerate(references):
        expected = _reference_to_points(points, medoids)
        assert stacked[run].tolist() == expected.tolist()


@st.composite
def _point_stacks(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    n, d = draw(st.integers(1, 120)), draw(st.integers(1, 40))
    stack = np.stack([
        _points(rng, n, d, draw(_SHAPES)) for _ in range(draw(st.integers(1, 6)))
    ])
    return stack


@settings(max_examples=60, deadline=None, suppress_health_check=_RELAXED)
@given(stack=_point_stacks())
def test_a_stack_of_samples_gets_each_samples_own_matrix(stack):
    matrices = pairwise_distances(stack)
    for points, matrix in zip(stack, matrices):
        expected = _reference_euclidean(points)
        assert matrix.dtype == expected.dtype
        assert matrix.tolist() == expected.tolist()


@st.composite
def _labelled_matrices(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    n = draw(st.integers(1, 120))
    points = _points(rng, n, draw(st.integers(1, 4)), draw(_SHAPES))
    distances = _reference_euclidean(points, dtype=draw(_DTYPES))
    n_clusters = draw(st.integers(1, 8))
    labels = rng.integers(0, n_clusters, n)
    relabel = draw(st.sampled_from(["codes", "gaps", "negative", "float"]))
    if relabel == "gaps":  # ids with absent clusters between them
        labels = labels * 3 + 2
    elif relabel == "negative":
        labels = labels - 4
    elif relabel == "float":
        labels = labels.astype(np.float64) / 2
    return distances, labels


@settings(max_examples=150, deadline=None, suppress_health_check=_RELAXED)
@given(case=_labelled_matrices())
def test_silhouettes_match_the_per_cluster_reference(case):
    distances, labels = case
    values = silhouette_samples(distances, labels, validate=False)
    reference = _reference_silhouette_samples(distances, labels)
    assert values.dtype == reference.dtype
    assert values.tolist() == reference.tolist()
    assert mean_silhouette(distances, labels, validate=False) == (
        _reference_mean_silhouette(distances, labels)
    )


@st.composite
def _scored_points(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    n = draw(
        st.one_of(
            st.integers(3, 400),
            st.integers(CLARA_THRESHOLD + 1, CLARA_THRESHOLD + 60),
        )
    )
    points = _points(rng, n, draw(st.integers(1, 4)), draw(_SHAPES))
    # Cluster ids as a clustering hands them out, sometimes one cluster
    # so small that most subsamples miss it (and score as undefined).
    k = draw(st.integers(1, 7))
    labels = rng.integers(0, k, n)
    if draw(st.booleans()):
        labels = np.where(rng.random(n) < 0.01, 1, 0)
    return dict(
        points=points,
        labels=labels,
        n_subsamples=draw(st.integers(1, 8)),
        subsample_size=draw(st.integers(2, min(n, 200))),
        seed=draw(st.integers(0, 2**31 - 1)),
    )


@settings(max_examples=80, deadline=None, suppress_health_check=_RELAXED)
@given(case=_scored_points())
def test_monte_carlo_scores_match_the_per_subsample_reference(case):
    seed, labels = case.pop("seed"), case.pop("labels")
    shared = SharedSilhouette(
        case["points"],
        n_subsamples=case["n_subsamples"],
        subsample_size=case["subsample_size"],
        exact_threshold=0,
        rng=np.random.default_rng(seed),
    )
    if shared.exact:  # n == subsample_size: one full matrix, no draws
        expected = _reference_mean_silhouette(
            _reference_euclidean(case["points"]), labels
        )
    else:
        expected = _reference_monte_carlo(
            labels=labels, rng=np.random.default_rng(seed), **case
        )
    assert shared.score(labels) == expected


def _tie_matrix():
    """Eight points; from medoid 0, swapping in 6 or in 7 gains exactly as
    much, and the summation order decides whether the two gains agree.

    Column 6 holds ``t, t, ¼, ¼, ¼, ¼, 0, ¼`` and column 7
    ``¼, ¼, ¼, ¼, t, t, ¼, 0`` (``t`` = 2⁻⁵³, half an ulp of 1): the same
    values, in another order.  NumPy's pairwise sum pairs the two ``t``
    before they meet anything large, so both columns sum to
    ``1.25 + 2⁻⁵²`` and the deltas are bit-equal — SWAP takes the first,
    6.  A point-by-point sum keeps the ``t`` of column 6 (they come
    first) and rounds away those of column 7 (they come after 1.0), so
    it would see 7 as strictly better and take it: the trap a point-major
    candidate gather falls into (one CLARA draw of a ledger map, seed 7,
    once did, costing +4.0 on the full data).
    """
    tiny = 2.0**-53
    distances = np.full((8, 8), 3.0)
    distances[0, 1:6] = 0.5
    distances[6] = [tiny, tiny, 0.25, 0.25, 0.25, 0.25, 0.0, 0.25]
    distances[7] = [0.25, 0.25, 0.25, 0.25, tiny, tiny, 0.25, 0.0]
    distances[:, 6], distances[:, 7] = distances[6], distances[7]
    distances[1:6, 0] = 0.5
    np.fill_diagonal(distances, 0.0)
    return distances


def test_a_swap_tie_breaks_as_the_pairwise_sum_says():
    distances = _tie_matrix()
    assert np.array_equal(distances, distances.T)
    # The trap: equal under the pairwise sum, unequal point by point.
    pairwise = [np.add.reduce(distances[:, c]) for c in (6, 7)]
    assert pairwise[0] == pairwise[1] == 1.25 + 2.0**-52
    sequential = []
    for c in (6, 7):
        total = 0.0
        for value in distances[:, c].tolist():
            total += value
        sequential.append(total)
    assert sequential[1] < sequential[0]

    assert _reference_swap(distances, np.array([0]), 200)[0].tolist() == [6]
    # Alone or stacked with other runs, the tie breaks the same way.
    stack = np.stack([distances, distances[::-1, ::-1], distances])
    starts = np.array([[0], [7], [3]])
    medoids, n_swaps = _swap(stack, starts, 200)
    for run in range(3):
        reference = _reference_swap(stack[run], starts[run], 200)
        assert medoids[run].tolist() == reference[0].tolist()
        assert int(n_swaps[run]) == reference[1]
    assert medoids[0].tolist() == [6]
    for k in (1, 2, 3):
        _same(pam(distances, k), _reference_pam(distances, k))


def test_a_build_tie_breaks_as_the_point_by_point_sum_says():
    """BUILD's mirror image of the SWAP trap: its gains are accumulated
    point by point, and a pairwise sum would break a tie the other way.

    With medoid 0 chosen, candidate 1 gains ``0, ½, ½, t, t, 0, 0, 0``
    and candidate 2 ``0, ½, ½, 0, t, t, 0, 0`` (``t`` = 2⁻⁵³): point by
    point both ``t`` arrive after the sum reached 1.0 and round away, so
    the gains are bit-equal and BUILD takes the first, 1.  A pairwise sum
    adds candidate 2's two ``t`` to each other first and keeps them.
    """
    tiny = 2.0**-53
    distances = np.full((8, 8), 3.0)
    distances[0, 1:3] = 0.5
    distances[0, 3:] = 0.75
    distances[1, 2] = 0.0
    distances[1, 3] = distances[1, 4] = 0.75 - tiny
    distances[2, 4] = distances[2, 5] = 0.75 - tiny
    distances = np.triu(distances, 1)
    distances = distances + distances.T

    nearest = distances[:, 0]
    gains = np.maximum(nearest[:, None] - distances, 0.0)
    point_by_point = gains.sum(axis=0)
    assert point_by_point[1] == point_by_point[2] == 1.0
    assert np.add.reduce(gains[:, 2]) > np.add.reduce(gains[:, 1])

    assert _reference_build(distances, 2).tolist() == [0, 1]
    stack = np.stack([distances, distances[::-1, ::-1]])
    for run, medoids in enumerate(_build(stack, 2)):
        assert medoids.tolist() == _reference_build(stack[run], 2).tolist()
    for k in (2, 3):
        _same(pam(distances, k), _reference_pam(distances, k))
