"""Pickle-free serialization for the engine's cacheable artifacts.

The disk artifact tier (:mod:`repro.store.artifacts`) must survive
process restarts and be shared between worker processes — exactly the
situation where ``pickle`` is both a security liability (a poisoned
cache entry executes code on load) and a compatibility trap (class
moves break every stored artifact).  This module is the replacement: a
closed *type registry* of the objects the map/graph pipelines cache
(:class:`~repro.core.datamap.DataMap`, the stage artifacts, dependency
graphs, theme sets and everything they transitively contain), encoded
as a JSON structure tree plus a flat list of raw NumPy arrays.

Container format (one artifact per file)::

    bytes 0..7     magic  b"BLAEUA1\\n"
    bytes 8..15    header length H (uint64, little-endian)
    bytes 16..47   sha256 over header + payload (torn-write detection)
    bytes 48..48+H JSON header: {"meta": <structure tree>,
                                 "arrays": [{dtype, shape, offset, nbytes}],
                                 "payload": <payload length>}
    then           the array payload, each array little-endian and
                   64-byte aligned (mmap/zero-copy friendly, matching
                   the raw column files of :mod:`repro.store.format`)

``decode(encode(x))`` round-trips every registered type by value; the
arrays come back read-only (artifacts are immutable by contract —
the same discipline the pipeline's shared cache already relies on).
Unregistered types raise :class:`CodecError`, which is how the tiered
cache decides a value stays memory-only instead of crashing the build.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from typing import Callable

import numpy as np

from repro.cluster.pam import Clustering
from repro.core.datamap import DataMap, Region
from repro.core.pipeline import (
    ClusterArtifact,
    DescribeArtifact,
    DistanceArtifact,
    SampleArtifact,
    SpaceArtifact,
    packed_count,
)
from repro.core.preprocess import FeatureSpace
from repro.core.themes import Theme, ThemeSet
from repro.graph.dependency import DependencyGraph
from repro.stats.normalize import ScalerStats
from repro.table.column import CategoricalColumn, NumericColumn
from repro.table.predicates import (
    And,
    Between,
    Comparison,
    Everything,
    In,
    IsMissing,
    Not,
    Or,
)
from repro.table.table import Table
from repro.tree.cart import CartParams, DecisionTree, TreeNode

__all__ = [
    "CodecError",
    "ArtifactCorruptError",
    "MAGIC",
    "encode",
    "decode",
    "encodable",
]

MAGIC = b"BLAEUA1\n"
_ALIGN = 64
_DIGEST_BYTES = 32
_HEADER_OFFSET = len(MAGIC) + 8 + _DIGEST_BYTES


class CodecError(ValueError):
    """A value outside the codec's closed type registry."""


class ArtifactCorruptError(ValueError):
    """An artifact file that fails structural or checksum validation."""


# ----------------------------------------------------------------------
# Structure-tree encoding
# ----------------------------------------------------------------------


class _Encoder:
    """Folds one object graph into a JSON tree + an array list."""

    def __init__(self) -> None:
        self.arrays: list[np.ndarray] = []

    def fold(self, value: object) -> object:
        if value is None or isinstance(value, (bool, int, str)):
            return value
        if isinstance(value, float):
            if math.isfinite(value):
                return value
            return {"$t": "f", "v": repr(value)}
        if isinstance(value, np.ndarray):
            if value.dtype.hasobject:
                raise CodecError(
                    "object-dtype arrays hold pointers, not values, and "
                    "cannot be serialized"
                )
            index = len(self.arrays)
            self.arrays.append(value)
            return {"$t": "nd", "i": index}
        if isinstance(value, (np.integer, np.floating, np.bool_)):
            return self.fold(value.item())
        if isinstance(value, list):
            return [self.fold(item) for item in value]
        if isinstance(value, tuple):
            return {"$t": "tu", "v": [self.fold(item) for item in value]}
        if isinstance(value, dict):
            return {
                "$t": "di",
                "v": [[self.fold(k), self.fold(v)] for k, v in value.items()],
            }
        spec = _SPECS_BY_TYPE.get(type(value))
        if spec is None:
            raise CodecError(
                f"type {type(value).__module__}.{type(value).__qualname__} "
                "is not registered with the artifact codec"
            )
        tag, to_fields, _ = spec
        return {"$t": tag, "v": {k: self.fold(v) for k, v in to_fields(value).items()}}


class _Decoder:
    """Rebuilds an object graph from a JSON tree + an array list."""

    def __init__(self, arrays: list[np.ndarray]) -> None:
        self.arrays = arrays

    def unfold(self, node: object) -> object:
        if node is None or isinstance(node, (bool, int, float, str)):
            return node
        if isinstance(node, list):
            return [self.unfold(item) for item in node]
        if not isinstance(node, dict):  # pragma: no cover - json guarantees
            raise ArtifactCorruptError(f"unexpected node {type(node).__name__}")
        tag = node.get("$t")
        body = node.get("v")
        if tag == "f":
            return float(body)
        if tag == "nd":
            index = node.get("i")
            if not isinstance(index, int) or not 0 <= index < len(self.arrays):
                raise ArtifactCorruptError(f"array index {index!r} out of range")
            return self.arrays[index]
        if tag == "tu":
            return tuple(self.unfold(item) for item in body)
        if tag == "di":
            return {self.unfold(k): self.unfold(v) for k, v in body}
        spec = _SPECS_BY_TAG.get(tag)
        if spec is None:
            raise ArtifactCorruptError(f"unknown codec tag {tag!r}")
        _, _, from_fields = spec
        return from_fields({k: self.unfold(v) for k, v in body.items()})


# ----------------------------------------------------------------------
# The type registry
# ----------------------------------------------------------------------

# tag -> (tag, to_fields, from_fields); one spec per registered type.
_SPECS_BY_TYPE: dict[type, tuple[str, Callable, Callable]] = {}
_SPECS_BY_TAG: dict[str, tuple[str, Callable, Callable]] = {}


def _register(tag: str, cls: type, to_fields: Callable, from_fields: Callable) -> None:
    spec = (tag, to_fields, from_fields)
    _SPECS_BY_TYPE[cls] = spec
    _SPECS_BY_TAG[tag] = spec


def _fields(*names: str) -> Callable:
    def to_fields(value: object) -> dict[str, object]:
        return {name: getattr(value, name) for name in names}

    return to_fields


def _typed(array: object, kinds: str) -> np.ndarray:
    """A column array whose dtype kind is one of ``kinds``.

    The column constructors cast what they are given (float codes to
    int32, integer values to float64), so a header that declares another
    dtype would decode to other cells without an error: it is corrupt.
    """
    if not isinstance(array, np.ndarray) or array.dtype.kind not in kinds:
        found = array.dtype.str if isinstance(array, np.ndarray) else type(array)
        raise ArtifactCorruptError(
            f"column array of dtype kind {kinds!r} expected, got {found}"
        )
    return array


_register(
    "numcol",
    NumericColumn,
    lambda c: {"name": c.name, "values": c.values, "mask": c.missing_mask},
    lambda f: NumericColumn(
        f["name"], _typed(f["values"], "f"), missing=_typed(f["mask"], "b")
    ),
)
_register(
    "catcol",
    CategoricalColumn,
    lambda c: {"name": c.name, "codes": c.codes, "categories": c.categories},
    lambda f: CategoricalColumn(f["name"], _typed(f["codes"], "iu"), f["categories"]),
)
_register(
    "table",
    Table,
    lambda t: {"name": t.name, "columns": list(t.columns)},
    lambda f: Table(f["name"], f["columns"]),
)

_register("p.all", Everything, lambda p: {}, lambda f: Everything())
_register(
    "p.cmp",
    Comparison,
    _fields("column", "op", "value"),
    lambda f: Comparison(f["column"], f["op"], f["value"]),
)
_register(
    "p.btw",
    Between,
    _fields("column", "low", "high"),
    lambda f: Between(f["column"], f["low"], f["high"]),
)
_register(
    "p.in",
    In,
    _fields("column", "labels"),
    lambda f: In(f["column"], f["labels"]),
)
_register(
    "p.mis", IsMissing, _fields("column"), lambda f: IsMissing(f["column"])
)
_register(
    "p.and",
    And,
    lambda p: {"operands": list(p.operands)},
    lambda f: And(f["operands"]),
)
_register(
    "p.or",
    Or,
    lambda p: {"operands": list(p.operands)},
    lambda f: Or(f["operands"]),
)
_register("p.not", Not, _fields("operand"), lambda f: Not(f["operand"]))

_register(
    "region",
    Region,
    _fields(
        "region_id",
        "label",
        "predicate",
        "n_rows",
        "depth",
        "cluster",
        "silhouette",
        "exemplar",
        "n_rows_error",
        "children",
    ),
    lambda f: Region(**f),
)
_register(
    "datamap",
    DataMap,
    _fields(
        "root",
        "columns",
        "k",
        "silhouette",
        "fidelity",
        "sample_size",
        "counts_status",
        "refinement",
    ),
    lambda f: DataMap(**f),
)

_register(
    "cartparams",
    CartParams,
    _fields(
        "max_depth",
        "min_samples_split",
        "min_samples_leaf",
        "min_impurity_decrease",
        "max_numeric_thresholds",
    ),
    lambda f: CartParams(**f),
)
_register(
    "treenode",
    TreeNode,
    _fields(
        "n_samples",
        "class_counts",
        "impurity",
        "depth",
        "prediction",
        "column",
        "threshold",
        "category",
        "missing_goes_left",
        "left",
        "right",
    ),
    lambda f: TreeNode(**f),
)
_register(
    "tree",
    DecisionTree,
    _fields("root", "feature_names", "n_classes", "params"),
    lambda f: DecisionTree(**f),
)

_register(
    "clustering",
    Clustering,
    _fields("labels", "medoids", "cost", "n_iterations"),
    lambda f: Clustering(**f),
)
_register(
    "scaler",
    ScalerStats,
    _fields("center", "scale"),
    lambda f: ScalerStats(**f),
)
_register(
    "space",
    FeatureSpace,
    _fields(
        "matrix",
        "feature_names",
        "numeric_mask",
        "source_columns",
        "scalers",
        "dropped_keys",
        "dropped_wide",
    ),
    lambda f: FeatureSpace(**f),
)
_register(
    "depgraph",
    DependencyGraph,
    _fields("columns", "weights", "measure"),
    lambda f: DependencyGraph(**f),
)
_register(
    "theme",
    Theme,
    _fields("name", "columns", "cohesion"),
    lambda f: Theme(**f),
)
_register(
    "themeset",
    ThemeSet,
    _fields("themes", "graph", "silhouette", "k_scores", "excluded_keys"),
    lambda f: ThemeSet(**f),
)

def _sample_artifact(f: dict[str, object]) -> SampleArtifact:
    """A Sample artifact whose selection is a packed bitmap that holds
    exactly ``n_selection`` rows.

    An entry written when the selection was a byte per row (a boolean
    mask) would be counted as bits, so any other dtype, shape or row
    count is corrupt.
    """
    mask = f["selection_mask"]
    if mask is not None and not (
        isinstance(mask, np.ndarray)
        and mask.dtype == np.uint8
        and mask.ndim == 1
        and packed_count(mask) == f["n_selection"]
    ):
        found = mask.dtype.str if isinstance(mask, np.ndarray) else type(mask)
        raise ArtifactCorruptError(
            f"selection of {found} does not pack the "
            f"{f['n_selection']!r} selected rows into a uint8 bitmap"
        )
    return SampleArtifact(**f)


_register(
    "art.sample",
    SampleArtifact,
    _fields("sample", "selection_mask", "n_selection", "rng_state"),
    _sample_artifact,
)
_register(
    "art.space", SpaceArtifact, _fields("space"), lambda f: SpaceArtifact(**f)
)
_register(
    "art.dist",
    DistanceArtifact,
    _fields("matrix"),
    lambda f: DistanceArtifact(**f),
)
_register(
    "art.cluster",
    ClusterArtifact,
    _fields("clustering", "silhouette", "leaf_silhouettes"),
    lambda f: ClusterArtifact(**f),
)
_register(
    "art.describe",
    DescribeArtifact,
    _fields("tree", "fidelity", "exemplars"),
    lambda f: DescribeArtifact(**f),
)


# ----------------------------------------------------------------------
# Container read/write
# ----------------------------------------------------------------------


def _little_endian(array: np.ndarray) -> np.ndarray:
    """The array as contiguous little-endian bytes (copy only if needed)."""
    array = np.ascontiguousarray(array)
    if array.dtype.byteorder == ">":  # pragma: no cover - big-endian host
        array = array.astype(array.dtype.newbyteorder("<"))
    return array


def encode(value: object) -> bytes:
    """Serialize a registered object graph to one artifact blob."""
    encoder = _Encoder()
    meta = encoder.fold(value)
    descriptors: list[dict[str, object]] = []
    chunks: list[bytes] = []
    offset = 0
    for array in encoder.arrays:
        array = _little_endian(array)
        pad = (-offset) % _ALIGN
        if pad:
            chunks.append(b"\0" * pad)
            offset += pad
        raw = array.tobytes()
        descriptors.append(
            {
                "dtype": array.dtype.str,
                "shape": list(array.shape),
                "offset": offset,
                "nbytes": len(raw),
            }
        )
        chunks.append(raw)
        offset += len(raw)
    payload = b"".join(chunks)
    header = json.dumps(
        {"meta": meta, "arrays": descriptors, "payload": len(payload)},
        separators=(",", ":"),
        allow_nan=False,
    ).encode("utf-8")
    digest = hashlib.sha256(header + payload).digest()
    out = io.BytesIO()
    out.write(MAGIC)
    out.write(len(header).to_bytes(8, "little"))
    out.write(digest)
    out.write(header)
    out.write(payload)
    return out.getvalue()


def decode(blob: bytes | bytearray | memoryview) -> object:
    """Deserialize an artifact blob; raises :class:`ArtifactCorruptError`
    on any corruption.

    The returned arrays are zero-copy read-only views into ``blob``
    (artifacts are immutable by contract), so large payloads — distance
    matrices, column values — are never duplicated on load.  A blob
    whose checksum holds can still carry a malformed header (a writer
    bug, a hand-edited file): whatever a malformed header or structure
    tree makes the rebuild raise is reported as corruption here.
    """
    view = memoryview(blob)
    if len(view) < _HEADER_OFFSET or bytes(view[: len(MAGIC)]) != MAGIC:
        raise ArtifactCorruptError("bad artifact magic")
    header_len = int.from_bytes(view[len(MAGIC) : len(MAGIC) + 8], "little")
    stored = bytes(view[len(MAGIC) + 8 : _HEADER_OFFSET])
    body = view[_HEADER_OFFSET:]
    if header_len > len(body):
        raise ArtifactCorruptError("truncated artifact header")
    digest = hashlib.sha256(body).digest()
    if digest != stored:
        raise ArtifactCorruptError("artifact checksum mismatch")
    try:
        return _unpack(body, header_len)
    except ArtifactCorruptError:
        raise
    except (
        ArithmeticError,
        AttributeError,
        LookupError,
        RecursionError,
        TypeError,
        ValueError,
    ) as error:
        raise ArtifactCorruptError(
            f"malformed artifact: {type(error).__name__}: {error}"
        ) from error


def _unpack(body: memoryview, header_len: int) -> object:
    """The value of a checksummed header + payload."""
    try:
        header = json.loads(bytes(body[:header_len]).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ArtifactCorruptError(f"unreadable artifact header: {error}") from error
    payload = body[header_len:]
    if len(payload) != int(header.get("payload", -1)):
        raise ArtifactCorruptError("artifact payload length mismatch")
    arrays: list[np.ndarray] = []
    for descriptor in header.get("arrays", []):
        offset = int(descriptor["offset"])
        nbytes = int(descriptor["nbytes"])
        if offset < 0 or nbytes < 0 or offset + nbytes > len(payload):
            raise ArtifactCorruptError("array descriptor out of bounds")
        dtype = np.dtype(descriptor["dtype"])
        array = np.frombuffer(
            payload, dtype=dtype, count=nbytes // dtype.itemsize, offset=offset
        )
        array = array.reshape(tuple(int(n) for n in descriptor["shape"]))
        arrays.append(array)
    return _Decoder(arrays).unfold(header.get("meta"))


def encodable(value: object) -> bool:
    """Whether the codec can serialize ``value`` (cheap structural walk)."""
    try:
        _Encoder().fold(value)
    except CodecError:
        return False
    return True
