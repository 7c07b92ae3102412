"""Well-sealed but malformed artifacts: a mutation fuzzer over the header.

The SHA-256 of a BLAEUA1 blob catches torn writes and flipped bits, but
a blob whose checksum holds can still carry a malformed header: a
writer bug, or a file edited by hand.  Every case here mutates the
header text or its structure tree (truncation, bit flips, splices,
duplicates, inflated lengths, wrong types, an array descriptor retyped
to a dtype of the same width) and then *re-seals* the
checksum, so only the decoder's own validation stands between the blob
and the rebuild.  Each case must raise ``ArtifactCorruptError`` or
decode to a value the codec would write itself (the original, when the
mutation left the tree's meaning alone), and ``ArtifactCache.get`` must
answer a corrupt one with a miss and move it to quarantine.
"""

from __future__ import annotations

import copy
import hashlib
import json
import random

import numpy as np
import pytest

from repro.core.datamap import Region
from repro.stats.normalize import ScalerStats
from repro.store.artifacts import ArtifactCache, _key_hash
from repro.store.codec import MAGIC, ArtifactCorruptError, decode, encode
from repro.table.column import CategoricalColumn, NumericColumn
from repro.table.predicates import And, Comparison, In
from repro.table.table import Table

_HEADER_START = len(MAGIC) + 8 + 32

ORIGINAL = {
    "region": Region(
        "r",
        "all",
        And([Comparison("x", "<", 1.5), In("c", ("a", "b"))]),
        n_rows=10,
        depth=0,
        children=[
            Region("r0", "x < 1.5", Comparison("x", "<", 1.5), n_rows=4, depth=1)
        ],
    ),
    "table": Table(
        "t",
        [
            NumericColumn("x", [1.0, 2.0, np.nan]),
            CategoricalColumn.from_labels("c", ["a", "b", "a"]),
        ],
    ),
    "scaler": ScalerStats(0.5, 2.0),
    "matrix": np.arange(12.0).reshape(3, 4),
    "codes": np.array([1, 2, 3], dtype=np.int32),
    "triple": (float("inf"), "text", None),
    3: [True, -7],
}

#: What a retyped node becomes: every JSON type, and codec nodes that
#: name no array, no tag or the wrong body.
_STRANGERS = (
    None,
    0,
    -1,
    3.5,
    True,
    "zz",
    [],
    {},
    {"$t": "nd", "i": 99},
    {"$t": "tu", "v": 3},
    {"$t": "di", "v": [[[], 1]]},
    {"$t": "nope", "v": {}},
)


def _seal(header: bytes, payload: bytes) -> bytes:
    """A blob around ``header`` and ``payload`` with a correct checksum."""
    digest = hashlib.sha256(header + payload).digest()
    return MAGIC + len(header).to_bytes(8, "little") + digest + header + payload


def _split(blob: bytes) -> tuple[dict, bytes]:
    header_len = int.from_bytes(blob[len(MAGIC) : len(MAGIC) + 8], "little")
    end = _HEADER_START + header_len
    return json.loads(blob[_HEADER_START:end]), blob[end:]


def _slots(tree: object) -> list[tuple[object, object]]:
    """``(container, key)`` of every node below the root of ``tree``."""
    slots: list[tuple[object, object]] = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            items = list(node.items())
        elif isinstance(node, list):
            items = list(enumerate(node))
        else:
            continue
        for key, child in items:
            slots.append((node, key))
            stack.append(child)
    return slots


def _containers(tree: object) -> list[object]:
    return [
        container[key]
        for container, key in _slots(tree)
        if isinstance(container[key], (dict, list)) and container[key]
    ]


def _truncate(rng: random.Random, tree: dict) -> None:
    node = rng.choice(_containers(tree) or [tree])
    if isinstance(node, list):
        del node[rng.randrange(len(node)) :]
    else:
        del node[rng.choice(list(node))]


def _retype(rng: random.Random, tree: dict) -> None:
    container, key = rng.choice(_slots(tree))
    container[key] = copy.deepcopy(rng.choice(_STRANGERS))


def _splice(rng: random.Random, tree: dict) -> None:
    slots = _slots(tree)
    source, source_key = rng.choice(slots)
    container, key = rng.choice(slots)
    container[key] = copy.deepcopy(source[source_key])


def _duplicate(rng: random.Random, tree: dict) -> None:
    lists = [node for node in _containers(tree) if isinstance(node, list)]
    node = rng.choice(lists)
    node.insert(rng.randrange(len(node) + 1), copy.deepcopy(rng.choice(node)))


def _inflate(rng: random.Random, tree: dict) -> None:
    numbers = [
        (container, key)
        for container, key in _slots(tree)
        if type(container[key]) is int
    ]
    container, key = rng.choice(numbers)
    factor = rng.choice((2, -1, 1 << 40))
    container[key] = container[key] * factor + rng.choice((0, 1, 64))


#: Descriptor retypes that keep the item size, so the payload still
#: fits and only the declared dtype is wrong.
_SAME_WIDTH = {
    "<i4": "<f4",
    "<f4": "<i4",
    "<f8": "<i8",
    "<i8": "<f8",
    "|b1": "|u1",
    "|u1": "|b1",
}


def _retype_array(rng: random.Random, tree: dict) -> None:
    descriptor = rng.choice(tree["arrays"])
    descriptor["dtype"] = _SAME_WIDTH[descriptor["dtype"]]


TREE_MUTATIONS = (_truncate, _retype, _splice, _duplicate, _inflate, _retype_array)


def _mutated(rng: random.Random, blob: bytes) -> bytes:
    """One re-sealed mutation of ``blob``'s header."""
    header, payload = _split(blob)
    text = json.dumps(header).encode("utf-8")
    choice = rng.randrange(len(TREE_MUTATIONS) + 2)
    if choice < len(TREE_MUTATIONS):
        TREE_MUTATIONS[choice](rng, header)
        text = json.dumps(header).encode("utf-8")
    elif choice == len(TREE_MUTATIONS):
        text = text[: rng.randrange(len(text))]
    else:
        flipped = bytearray(text)
        flipped[rng.randrange(len(flipped))] ^= 1 << rng.randrange(8)
        text = bytes(flipped)
    return _seal(text, payload)


def _hand_cases(blob: bytes) -> list[bytes]:
    """The malformed headers that once escaped as untyped errors."""
    header, payload = _split(blob)

    def sealed(tree: object) -> bytes:
        return _seal(json.dumps(tree).encode("utf-8"), payload)

    no_offset = copy.deepcopy(header)
    del no_offset["arrays"][0]["offset"]
    bad_dtype = copy.deepcopy(header)
    bad_dtype["arrays"][0]["dtype"] = "zz"
    bad_tuple = dict(header, meta={"$t": "tu", "v": 3})
    depth = 200_000
    deep = b'{"meta":' + b"[" * depth + b"]" * depth + b',"arrays":[],"payload":0}'
    return [
        sealed([header]),  # a header that is a JSON list
        sealed(no_offset),
        sealed(bad_dtype),
        sealed(bad_tuple),
        _seal(deep, b""),
    ]


def _outcome(blob: bytes) -> bytes | None:
    """``None`` for a blob ``decode`` rejects as corrupt, else the
    re-encoding of what it decoded (any other error fails the test)."""
    try:
        value = decode(blob)
    except ArtifactCorruptError:
        return None
    return encode(value)


def _fuzz_cases(n_cases: int, seed: int) -> list[bytes]:
    blob = encode(ORIGINAL)
    rng = random.Random(seed)
    return _hand_cases(blob) + [_mutated(rng, blob) for _ in range(n_cases)]


def test_an_unchanged_tree_resealed_decodes_to_the_original():
    blob = encode(ORIGINAL)
    header, payload = _split(blob)
    # Other whitespace and key order: other bytes, the same tree.
    text = json.dumps(dict(reversed(list(header.items()))), indent=1)
    assert _outcome(_seal(text.encode("utf-8"), payload)) == blob


@pytest.mark.parametrize("index", range(5))
def test_the_once_escaping_headers_are_corrupt(index):
    with pytest.raises(ArtifactCorruptError):
        decode(_hand_cases(encode(ORIGINAL))[index])


def test_every_resealed_mutation_is_corrupt_or_a_writable_value():
    # _outcome raises on any other error, from decode or from
    # re-encoding what decoded.
    outcomes = [_outcome(blob) for blob in _fuzz_cases(400, seed=2016)]
    # The fuzzer bites: most mutations break the header.
    assert sum(outcome is None for outcome in outcomes) > len(outcomes) // 2


def _column_array(header: dict, tag: str, field: str) -> int:
    """The array index the ``field`` of the first ``tag`` node names."""
    stack = [header["meta"]]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            if node.get("$t") == tag:
                return node["v"][field]["i"]
            stack.extend(node.values())
        elif isinstance(node, list):
            stack.extend(node)
    raise AssertionError(f"no {tag} node")


#: Per column array, dtypes of its item size but of a kind other than
#: the one its tag needs.
_WRONG_KINDS = {
    ("catcol", "codes"): ["<f4", "|S4", "<U1", "|V4"],
    ("numcol", "values"): [
        "<i8",
        "<u8",
        "<c8",
        "<M8[s]",
        "<m8[s]",
        "|S8",
        "<U2",
        "|V8",
    ],
    ("numcol", "mask"): ["|u1", "|i1", "|S1", "|V1"],
}


@pytest.mark.parametrize(
    "tag, field, dtype",
    [
        (tag, field, dtype)
        for (tag, field), dtypes in _WRONG_KINDS.items()
        for dtype in dtypes
    ],
)
def test_a_column_array_retyped_in_its_descriptor_is_corrupt(tag, field, dtype):
    """The constructors would cast the retyped array (codes ``<f4`` to
    int32 read labels ``a a a`` for ``a b a``), so the declared dtype
    must be of the kind the tag needs."""
    header, payload = _split(encode(ORIGINAL))
    header["arrays"][_column_array(header, tag, field)]["dtype"] = dtype
    with pytest.raises(ArtifactCorruptError, match="dtype kind"):
        decode(_seal(json.dumps(header).encode("utf-8"), payload))


def test_a_bare_array_retyped_in_its_descriptor_still_decodes():
    """A bare array carries no type a tag could demand: it decodes as
    declared."""
    header, payload = _split(encode(ORIGINAL))
    for descriptor in header["arrays"]:
        descriptor["dtype"] = _SAME_WIDTH[descriptor["dtype"]]
    header["meta"] = {"$t": "nd", "i": 0}
    decoded = decode(_seal(json.dumps(header).encode("utf-8"), payload))
    assert decoded.dtype == np.dtype(header["arrays"][0]["dtype"])


def test_the_cache_quarantines_every_corrupt_resealed_blob(tmp_path):
    cache = ArtifactCache(tmp_path / "c")
    cache.put("k", ORIGINAL)
    name = _key_hash("k")
    path = cache.root / "objects" / name[:2] / f"{name}.art"
    quarantined = cache.root / "quarantine" / f"{name}.art"
    for blob in _fuzz_cases(120, seed=7):
        if _outcome(blob) is not None:
            continue
        path.write_bytes(blob)
        assert cache.get("k") is None
        assert not path.exists()
        assert quarantined.read_bytes() == blob
