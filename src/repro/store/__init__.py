"""``repro.store`` — out-of-core columnar storage with pushdown scans.

Blaeu's architecture (paper §3, Figure 4) places a DBMS under the
mapping engine precisely so the engine only ever materializes a
few-thousand-row sample per zoom.  This package is that storage layer
for the reproduction: tables too large for RAM live on disk in a
columnar format, and the engine's query surface — *select, project,
sample, take* — executes against them as chunked scans.

Manifest format
---------------
A store is a directory with a JSON manifest and one raw little-endian
binary file per column array::

    mystore/
      manifest.json             format/version, table name, n_rows,
                                chunk_rows, content fingerprint,
                                priority seed, column metadata,
                                partitions + zone maps, checksum
      priority.bin              int64 per-row priority permutation
      columns/c00000.values.bin float64 values of a numeric column
      columns/c00000.mask.bin   bool missing mask
      columns/c00001.codes.bin  int32 codes of a categorical column
      columns/c00001.mask.bin   bool missing mask
      columns/c00001.categories.json  dictionary, first-appearance order

The manifest's ``fingerprint`` is computed at ingest time with exactly
the algorithm of :meth:`repro.table.table.Table.fingerprint`, so a
store-backed table answers ``fingerprint()`` in O(1) *and* shares cache
keys with an in-memory table holding the same data.

Pushdown rules
--------------
:class:`~repro.store.stored.StoredTable` applies three pushdowns:

* **predicate** — ``select``/``scan_mask`` evaluate predicates chunk by
  chunk and read only the columns the predicate references
  (``Predicate.columns()``);
* **projection** — ``project``/``drop`` return store-backed *views*
  over a restricted column set, copying nothing;
* **sample** — ``sample`` computes row indices first and gathers only
  those rows, through memory maps closed when the gather returns.  The
  *persisted* ``priority.bin`` column is read by one chunked scan in
  ``top_k_sample`` (the ledger's top-k probe); no map samples from it.

Materializing operations return plain in-memory
:class:`~repro.table.table.Table` objects sized by their result, which
is how the mapping engine stays unchanged: ``build_map`` clusters the
sampled slice exactly as it would for an in-memory table (bit-identical
maps at the same seed), while full-selection work (CART routing for
exact region counts) runs as chunked scans.

``blaeu ingest`` usage
----------------------
::

    python -m repro ingest data.csv mystore/ [--name NAME]
        [--chunk-rows N] [--delimiter D] [--priority-seed S]
    python -m repro mystore/              # explore it in the shell
    python -m repro serve mystore/        # or serve it over HTTP

Ingestion (:func:`~repro.store.ingest.ingest_csv`) reads the CSV once,
in chunks, with streaming type inference that can promote a column from
numeric to categorical mid-file; peak memory is bounded by the chunk
size.  :func:`~repro.store.format.write_store` is the in-memory
complement (materialize an existing ``Table`` as a store).
"""

from repro.store.format import (
    DEFAULT_CHUNK_ROWS,
    MANIFEST_NAME,
    ColumnMeta,
    StoreManifest,
    write_store,
)
from repro.store.artifacts import (
    DEFAULT_MAX_BYTES,
    ArtifactCache,
    ArtifactCacheStats,
)
from repro.store.codec import (
    ArtifactCorruptError,
    CodecError,
    decode,
    encodable,
    encode,
)
from repro.store.ingest import ingest_csv
from repro.store.stored import StoredTable

__all__ = [
    "DEFAULT_CHUNK_ROWS",
    "DEFAULT_MAX_BYTES",
    "ArtifactCache",
    "ArtifactCacheStats",
    "ArtifactCorruptError",
    "CodecError",
    "MANIFEST_NAME",
    "ColumnMeta",
    "StoreManifest",
    "StoredTable",
    "decode",
    "encodable",
    "encode",
    "ingest_csv",
    "write_store",
]
