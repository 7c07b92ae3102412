"""Engine configuration.

One dataclass gathers every knob the paper mentions — sample sizes ("a
few thousand samples" per zoom), the CLARA cutover, silhouette
Monte-Carlo parameters, candidate k ranges — so experiments can sweep
them and the defaults document the paper's operating point.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

from repro.tree.cart import CartParams

__all__ = ["BlaeuConfig", "ExplorationConfig"]


@dataclass(frozen=True)
class BlaeuConfig:
    """All tuning knobs of the Blaeu engine.

    Attributes
    ----------
    map_sample_size:
        Tuples sampled from the active selection before clustering
        (paper: "a few thousand").
    dependency_sample_size:
        Rows sampled for dependency-graph estimation.
    graph_jobs:
        Thread-level parallelism of the batched NMI kernel behind the
        dependency graph: ``None`` or 1 runs serially, 0 uses every
        core, any other value that many workers.  Results are identical
        across settings.
    graph_bin_sample_size:
        Rows in the deterministic sample the graph stage derives its
        numeric bin cuts from.  The sample is seeded by ``seed``
        alone, so cuts — and therefore cached column codes —
        are identical across processes and across store/memory
        residencies of the same table.
    clara_threshold:
        Sample sizes above this use CLARA instead of exact PAM.
    clara_draws:
        Independent CLARA samples (Kaufman & Rousseeuw recommend 5).
    clara_sample_size:
        Rows per CLARA draw (``None``: the book's 40 + 2k rule).
    map_k_values:
        Candidate cluster counts for data maps.
    theme_k_values:
        Candidate theme counts for the column partition; ``None`` (the
        default) uses a logarithmic grid scaled to the column count
        (wide tables like the 378-column OECD set need k ≫ 8).
    silhouette_subsamples / silhouette_subsample_size:
        Monte-Carlo silhouette parameters (paper §3).
    silhouette_exact_threshold:
        Samples up to this many rows are scored with the exact silhouette
        over one shared distance matrix; larger samples fall back to the
        Monte-Carlo estimator (whose subsample matrices are likewise
        computed once and shared across every candidate k).
    distance_dtype:
        Floating dtype of the distance kernels: ``"float64"`` (default)
        or ``"float32"`` — half the memory traffic on the O(n²)
        matrices, at a bounded accuracy cost.
    tree_params:
        CART growth controls for the description stage.
    max_categorical_cardinality:
        Categorical columns with more distinct labels are excluded from
        clustering features (they behave like keys; they remain available
        for highlighting).
    min_zoom_rows:
        Regions with fewer matching tuples than this cannot be zoomed
        into (nothing left to cluster).
    highlight_preview_rows:
        Tuples shown by a highlight before charts take over.
    prune_leaf_factor:
        After the description stage the tree is pruned toward
        ``k × prune_leaf_factor`` leaves for legibility.
    prune_min_fidelity:
        Pruning never drops the tree's agreement with the clustering
        below this fraction.
    count_mode:
        ``"exact"`` (default) blocks each map build on the exact
        region-count routing pass over the full selection;
        ``"approximate"`` returns immediately with sample-extrapolated
        counts (± error bounds) and leaves the exact pass to
        :meth:`Explorer.refine` / the service's background refinement.
    seed:
        Root seed for all engine randomness: it is part of
        :meth:`digest`, and every build seeds itself from its content
        key (:func:`repro.table.sampling.seed_for`), digest included.
    """

    map_sample_size: int = 2000
    dependency_sample_size: int = 1000
    graph_jobs: int | None = None
    graph_bin_sample_size: int = 4096
    clara_threshold: int = 1200
    clara_draws: int = 5
    clara_sample_size: int | None = None
    map_k_values: tuple[int, ...] = (2, 3, 4, 5, 6)
    theme_k_values: tuple[int, ...] | None = None
    silhouette_subsamples: int = 8
    silhouette_subsample_size: int = 200
    silhouette_exact_threshold: int = 600
    distance_dtype: str = "float64"
    tree_params: CartParams = field(default_factory=CartParams)
    max_categorical_cardinality: int = 50
    min_zoom_rows: int = 20
    highlight_preview_rows: int = 12
    prune_leaf_factor: int = 2
    prune_min_fidelity: float = 0.9
    count_mode: str = "exact"
    seed: int = 42

    def __post_init__(self) -> None:
        if self.map_sample_size < 10:
            raise ValueError("map_sample_size must be at least 10")
        if self.clara_threshold < 10:
            raise ValueError("clara_threshold must be at least 10")
        if not self.map_k_values or min(self.map_k_values) < 2:
            raise ValueError("map_k_values must contain integers >= 2")
        if self.theme_k_values is not None and (
            not self.theme_k_values or min(self.theme_k_values) < 2
        ):
            raise ValueError("theme_k_values must contain integers >= 2")
        if self.graph_jobs is not None and self.graph_jobs < 0:
            raise ValueError("graph_jobs must be None, 0 (all cores) or >= 1")
        if self.graph_bin_sample_size < 2:
            raise ValueError("graph_bin_sample_size must be at least 2")
        if self.silhouette_exact_threshold < 0:
            raise ValueError("silhouette_exact_threshold must be >= 0")
        if self.distance_dtype not in ("float32", "float64"):
            raise ValueError("distance_dtype must be 'float32' or 'float64'")
        if self.min_zoom_rows < 2:
            raise ValueError("min_zoom_rows must be at least 2")
        if self.prune_leaf_factor < 1:
            raise ValueError("prune_leaf_factor must be at least 1")
        if not 0.0 <= self.prune_min_fidelity <= 1.0:
            raise ValueError("prune_min_fidelity must be in [0, 1]")
        if self.count_mode not in ("exact", "approximate"):
            raise ValueError("count_mode must be 'exact' or 'approximate'")

    #: Knobs that change how a result is computed or delivered but never
    #: which result — excluded from :meth:`digest` so configs differing
    #: only here share cache entries and key-derived randomness (the
    #: "results are identical either way" contracts depend on this).
    _RESULT_NEUTRAL_KNOBS = ("count_mode",)

    #: Parallelism widths: results are bit-identical at any value, so
    #: :meth:`digest` hashes them as ``None``.  They stay *in* the
    #: payload (not popped) because the default digest — and every
    #: golden digest derived from it — names them.
    _WIDTH_KNOBS = ("graph_jobs",)

    #: Payload entries of knobs that no longer exist, frozen at the value
    #: they were hashed with, so the default digest (and every key-derived
    #: seed and golden digest) does not move: the CLARA draw width, gone
    #: since the draws became one array program, and the store-scan
    #: process width, gone since every partition pass became one serial
    #: fold.
    _RETIRED_KNOBS = {"clara_jobs": None, "scan_jobs": None}

    def digest(self) -> str:
        """A stable hash of every result-affecting knob.

        Two configs with equal field values share a digest; any knob
        that can change a computed result changes it.  Used as a
        cache-key component (and, via the key-seeded RNG chain, as the
        randomness root) so results computed under one configuration
        are never served — or perturbed — by another.  The
        result-neutral knob ``count_mode`` is excluded: two-phase
        counting never changes the final exact map, so sessions
        differing only there share cache entries and refinements.  So
        is the ``graph_jobs`` width:
        a cached engine at ``graph_jobs=2`` draws the same key-derived
        seeds, and shares artifacts with, one at ``graph_jobs=None``.
        """
        payload = dataclasses.asdict(self)
        for knob in self._RESULT_NEUTRAL_KNOBS:
            payload.pop(knob)
        for knob in self._WIDTH_KNOBS:
            payload[knob] = None
        payload.update(self._RETIRED_KNOBS)
        text = json.dumps(payload, sort_keys=True, default=repr)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


#: The curated public name of the engine configuration: exploration is
#: what the knobs tune (sample sizes per zoom, cluster-count grids,
#: CLARA cutovers), so ``repro.ExplorationConfig`` is the spelling the
#: package surface advertises.  ``BlaeuConfig`` remains the internal
#: (and historical) name; they are the same class.
ExplorationConfig = BlaeuConfig
