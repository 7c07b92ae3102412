"""The data map model (paper §2, Figure 1).

A :class:`DataMap` is an interactive visualization *model*: a hierarchy of
:class:`Region` nodes mirroring the description tree.  Leaves are the
clusters; internal regions carry the split condition that separates their
children ("% employees working long hours >= 20").  Each region knows its
predicate (relative to the map's selection), its exact tuple count over
the full selection, and a representative tuple (the cluster medoid) for
leaves.

The map is serializable to plain dicts — that is the payload the NodeJS
tier would relay to the D3 client in the paper's architecture.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.table.predicates import Everything, Predicate

__all__ = ["Region", "DataMap"]


@dataclass
class Region:
    """A node of the map hierarchy.

    Written only while the pipeline builds its map, never after the
    :class:`DataMap` holding it exists: the map's kept export text
    (:mod:`repro.viz.export`) would go stale.

    Attributes
    ----------
    region_id:
        Stable identifier within its map ("r", "r0", "r01", … — the path
        from the root encoded digit by digit).
    label:
        Human-readable condition that carved this region out of its
        parent ("Average Income < 22"); the root is "all rows".
    predicate:
        Conjunction of all conditions from the root (relative to the
        map's selection, not the whole table).
    n_rows:
        Exact number of tuples of the map's selection in this region.
    cluster:
        Cluster id for leaf regions, ``None`` for internal regions.
    silhouette:
        Mean silhouette of the cluster (leaves only; ``None`` elsewhere).
    exemplar:
        Medoid tuple of the cluster as a column → value dict (leaves).
    n_rows_error:
        95% error bound on ``n_rows`` when the map's counts are
        sample-extrapolated (``None`` once counts are exact).
    children:
        Sub-regions (empty for leaves).
    """

    region_id: str
    label: str
    predicate: Predicate
    n_rows: int
    depth: int
    cluster: int | None = None
    silhouette: float | None = None
    exemplar: dict[str, object] = field(default_factory=dict)
    n_rows_error: int | None = None
    children: list["Region"] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        """Whether this region is an undivided cluster."""
        return not self.children

    def walk(self) -> Iterator["Region"]:
        """Pre-order traversal of this region and its descendants."""
        yield self
        for child in self.children:
            yield from child.walk()

    def fraction_of(self, total: int) -> float:
        """This region's share of ``total`` tuples (its *area* on the map)."""
        if total <= 0:
            return 0.0
        return self.n_rows / total

    def to_dict(self) -> dict[str, object]:
        """JSON-ready representation (recursive)."""
        out: dict[str, object] = {
            "id": self.region_id,
            "label": self.label,
            "sql": self.predicate.to_sql(),
            "n_rows": self.n_rows,
            "depth": self.depth,
        }
        if self.cluster is not None:
            out["cluster"] = self.cluster
        if self.silhouette is not None:
            out["silhouette"] = round(self.silhouette, 4)
        if self.n_rows_error is not None:
            out["n_rows_error"] = self.n_rows_error
        if self.exemplar:
            out["exemplar"] = dict(self.exemplar)
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out


@dataclass(frozen=True)
class DataMap:
    """A complete data map over one selection and one column set.

    A map is never changed once built: its fields are frozen, and its
    regions are only written while the pipeline builds them (a count
    refinement builds a new map).  :mod:`repro.viz.export` relies on
    this: it keeps a map's export text with the map and serves that
    text for every later export.

    Attributes
    ----------
    root:
        The region hierarchy; ``root.n_rows`` is the selection size.
    columns:
        The active columns (the theme) the map was built on.
    k:
        Number of clusters (leaf regions).
    silhouette:
        Monte-Carlo silhouette of the underlying clustering.
    fidelity:
        Fraction of sampled tuples for which the description tree agrees
        with the clustering (the "loss of accuracy" of the description
        stage; 1.0 = perfect).
    sample_size:
        Tuples actually clustered (≤ selection size).
    counts_status:
        ``"exact"`` when every region's ``n_rows`` was counted by
        routing the full selection through the description tree;
        ``"approximate"`` when counts are extrapolated from the sample
        (each region then carries an ``n_rows_error`` bound) and an
        exact refinement pass is still outstanding.
    refinement:
        Private context for the approximate→exact count upgrade (the
        fitted description tree); ``None`` on exact maps.  Never
        serialized.
    """

    root: Region
    columns: tuple[str, ...]
    k: int
    silhouette: float
    fidelity: float
    sample_size: int
    counts_status: str = "exact"
    refinement: object | None = field(default=None, repr=False, compare=False)

    @property
    def n_rows(self) -> int:
        """Size of the mapped selection."""
        return self.root.n_rows

    def regions(self) -> list[Region]:
        """All regions, pre-order (root first)."""
        return list(self.root.walk())

    def leaves(self) -> list[Region]:
        """The cluster regions, in hierarchy order."""
        return [region for region in self.root.walk() if region.is_leaf]

    def region(self, region_id: str) -> Region:
        """Look a region up by id; raises ``KeyError`` when absent."""
        for candidate in self.root.walk():
            if candidate.region_id == region_id:
                return candidate
        raise KeyError(
            f"no region {region_id!r}; available: "
            f"{[r.region_id for r in self.root.walk()]}"
        )

    def to_dict(self) -> dict[str, object]:
        """JSON-ready payload (what the web tier would ship to D3)."""
        return {
            "columns": list(self.columns),
            "k": self.k,
            "n_rows": self.n_rows,
            "sample_size": self.sample_size,
            "silhouette": round(self.silhouette, 4),
            "fidelity": round(self.fidelity, 4),
            "counts_status": self.counts_status,
            "root": self.root.to_dict(),
        }


def region_predicate(region: Region) -> Predicate:
    """The region's predicate (kept for API symmetry; see ``Region.predicate``)."""
    return region.predicate if region.predicate is not None else Everything()
