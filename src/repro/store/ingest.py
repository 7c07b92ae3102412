"""One-pass chunked CSV ingestion into a store directory.

``blaeu ingest`` (and :func:`ingest_csv` behind it) reads a CSV exactly
once, in chunks of ``chunk_rows`` records, and writes the columnar files
of :mod:`repro.store.format` as it goes — peak memory is bounded by one
chunk regardless of file size.

**Streaming type inference.**  Every column starts *tentatively numeric*
and is promoted to categorical the moment any chunk shows a present cell
that does not parse as a float — the same decision
:func:`repro.table.schema.infer_column` makes with the whole column in
hand, taken incrementally.  Because a promotion can happen in chunk 400
after 399 numeric-looking chunks, each tentative column also spills its
raw cells to a temporary side file; promotion replays the spill through
the categorical encoder and the spill is deleted.  Columns that finish
numeric but saw only 0/1 values (disguised flags) or no present values
at all are demoted the same way at finalize, so ingesting a CSV and
``read_csv``-ing it produce *identical* tables — same kinds, values,
masks, codes and category order, and therefore the same content
fingerprint (the ingester streams the
:meth:`~repro.table.table.Table.fingerprint` algorithm over the
finished column files and records the digest in the manifest).
"""

from __future__ import annotations

import pickle
import shutil
from pathlib import Path
from typing import IO, Mapping, Sequence

import numpy as np

from repro.obs.metrics import get_metrics
from repro.obs.trace import get_tracer
from repro.store.format import (
    CODES_DTYPE,
    DEFAULT_CHUNK_ROWS,
    DEFAULT_PARTITION_ROWS,
    KIND_CATEGORICAL,
    KIND_NUMERIC,
    MASK_DTYPE,
    VALUES_DTYPE,
    ColumnMeta,
    StoreManifest,
    StreamingFingerprint,
    column_file_stem,
    write_priorities,
)
from repro.store.stored import StoredTable
from repro.table.column import MISSING_TOKENS, ColumnKind, _parse_float
from repro.table.csv_io import CsvChunkReader
from repro.table.schema import FLAG_VALUES

__all__ = ["append_csv", "ingest_csv"]

#: Spill framing protocol (pickle keeps the replay loop at C speed).
_SPILL_PROTOCOL = pickle.HIGHEST_PROTOCOL


class _CategoricalBuilder:
    """Streams cells into a codes file + incremental dictionary.

    ``seed_categories`` pre-loads the dictionary so appended chunks keep
    the codes of an existing store's categories and only extend the
    dictionary with genuinely new labels, in first-appearance order —
    exactly what a fresh ingest of the concatenated data would produce.
    """

    def __init__(
        self,
        tmp_dir: Path,
        position: int,
        seed_categories: Sequence[str] = (),
    ) -> None:
        self.codes_path = tmp_dir / f"c{position:05d}.codes.bin"
        self.mask_path = tmp_dir / f"c{position:05d}.cat-mask.bin"
        self._codes = self.codes_path.open("wb")
        self._mask = self.mask_path.open("wb")
        self.categories: list[str] = list(seed_categories)
        self._index: dict[str, int] = {
            label: code for code, label in enumerate(self.categories)
        }

    def feed(self, cells: Sequence[str]) -> None:
        codes = np.empty(len(cells), dtype=CODES_DTYPE)
        index = self._index
        categories = self.categories
        for i, cell in enumerate(cells):
            if cell is None or str(cell).strip().lower() in MISSING_TOKENS:
                codes[i] = -1
                continue
            label = str(cell)
            code = index.get(label)
            if code is None:
                code = len(categories)
                index[label] = code
                categories.append(label)
            codes[i] = code
        self._codes.write(codes.tobytes())
        self._mask.write((codes == -1).astype(MASK_DTYPE).tobytes())

    def close(self) -> None:
        self._codes.close()
        self._mask.close()


class _ColumnBuilder:
    """Per-column streaming state: tentative numeric with spill, or final
    categorical.  ``forced`` pins the kind up front (no spill needed)."""

    def __init__(
        self,
        name: str,
        position: int,
        tmp_dir: Path,
        forced: ColumnKind | None,
        seed_categories: Sequence[str] = (),
    ) -> None:
        self.name = name
        self.position = position
        self._tmp_dir = tmp_dir
        self._forced = forced
        self._any_present = False
        self._flags_only = True
        self._categorical: _CategoricalBuilder | None = None
        self._values: IO[bytes] | None = None
        self._mask: IO[bytes] | None = None
        self._spill: IO[bytes] | None = None
        self.values_path = tmp_dir / f"c{position:05d}.values.bin"
        self.mask_path = tmp_dir / f"c{position:05d}.num-mask.bin"
        self.spill_path = tmp_dir / f"c{position:05d}.spill.pkl"
        if forced is ColumnKind.CATEGORICAL:
            self._categorical = _CategoricalBuilder(
                tmp_dir, position, seed_categories
            )
        else:
            self._values = self.values_path.open("wb")
            self._mask = self.mask_path.open("wb")
            if forced is None:
                self._spill = self.spill_path.open("wb")

    @property
    def kind(self) -> str:
        return KIND_NUMERIC if self._categorical is None else KIND_CATEGORICAL

    def feed(self, cells: Sequence[str]) -> None:
        if self._categorical is not None:
            self._categorical.feed(cells)
            return
        parsed = self._parse_chunk(cells)
        if parsed is None:  # a present, unparseable cell: promote now
            # The spill holds every *earlier* chunk; the current one is
            # fed directly after the replay.
            self._promote()
            assert self._categorical is not None
            self._categorical.feed(cells)
            return
        if self._spill is not None:
            pickle.dump(list(cells), self._spill, protocol=_SPILL_PROTOCOL)
        values, mask = parsed
        present = values[~mask]
        if present.size:
            self._any_present = True
            if self._flags_only and not np.isin(
                present, tuple(FLAG_VALUES)
            ).all():
                self._flags_only = False
        assert self._values is not None and self._mask is not None
        self._values.write(values.tobytes())
        self._mask.write(mask.astype(MASK_DTYPE).tobytes())

    def _parse_chunk(
        self, cells: Sequence[str]
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Parse one chunk as floats; ``None`` means "promote me".

        Fast path: a single vectorized conversion when every cell is a
        plain number.  Any missing token or odd spelling falls back to
        the cell-by-cell parser that mirrors ``NumericColumn.from_cells``
        exactly.
        """
        try:
            values = np.asarray(cells, dtype=np.dtype(VALUES_DTYPE))
        except (ValueError, TypeError):
            values = None
        if values is not None and not np.isnan(values).any():
            return values, np.zeros(len(cells), dtype=bool)
        values = np.empty(len(cells), dtype=np.dtype(VALUES_DTYPE))
        mask = np.zeros(len(cells), dtype=bool)
        for i, cell in enumerate(cells):
            parsed = _parse_float(cell)
            if parsed is None:
                if (
                    self._forced is None
                    and cell is not None
                    and str(cell).strip().lower() not in MISSING_TOKENS
                ):
                    return None  # present but not a number
                values[i] = np.nan
                mask[i] = True
            else:
                values[i] = parsed
        return values, mask

    def _promote(self) -> None:
        """Switch to categorical, replaying the spilled raw cells."""
        assert self._values is not None and self._mask is not None
        self._values.close()
        self._mask.close()
        self._values = self._mask = None
        spill = self._spill
        self._spill = None
        assert spill is not None
        spill.close()
        self._categorical = _CategoricalBuilder(self._tmp_dir, self.position)
        with self.spill_path.open("rb") as handle:
            while True:
                try:
                    chunk = pickle.load(handle)
                except EOFError:
                    break
                self._categorical.feed(chunk)
        self.spill_path.unlink()
        self.values_path.unlink()
        self.mask_path.unlink()

    def finalize(self) -> None:
        """Apply the end-of-stream kind decisions ``infer_column`` makes.

        A column that stayed all-numeric is still categorical when it
        never had a present value, or when every present value was a
        0/1 flag (forced-numeric columns are exempt, as in
        ``infer_column``).
        """
        if self._categorical is None and self._forced is None:
            if not self._any_present or self._flags_only:
                self._promote()
        if self._values is not None:
            self._values.close()
            self._values = None
        if self._mask is not None:
            self._mask.close()
            self._mask = None
        if self._spill is not None:
            self._spill.close()
            self._spill = None
            self.spill_path.unlink(missing_ok=True)
        if self._categorical is not None:
            self._categorical.close()

    def abort(self) -> None:
        for handle in (self._values, self._mask, self._spill):
            if handle is not None:
                handle.close()
        if self._categorical is not None:
            self._categorical.close()


def ingest_csv(
    source: str | Path | IO[str],
    out_dir: str | Path,
    name: str | None = None,
    delimiter: str = ",",
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    priority_seed: int = 0,
    kinds: Mapping[str, ColumnKind] | None = None,
    partition_rows: int = DEFAULT_PARTITION_ROWS,
) -> StoredTable:
    """Ingest a CSV into a new store directory; returns the opened table.

    Parameters
    ----------
    source:
        CSV path or open text file-like (read exactly once, in order).
    out_dir:
        Target store directory (created; must not already hold a store).
    name:
        Table name; defaults to the file stem (``"table"`` for
        file-likes).
    delimiter:
        Field separator.
    chunk_rows:
        Records per ingestion chunk — the peak-memory bound.
    priority_seed:
        Seed of the persisted multi-scale sampling priorities.
    kinds:
        Optional per-column kind overrides (skips inference, and the
        spill that inference needs).
    partition_rows:
        Rows per zone-mapped partition recorded in the manifest.
    """
    out_dir = Path(out_dir)
    if (out_dir / "manifest.json").exists():
        raise FileExistsError(f"{out_dir} already holds a store manifest")
    if hasattr(source, "read"):
        resolved_name = name or "table"
        handle: IO[str] = source  # type: ignore[assignment]
        close = False
    else:
        path = Path(source)  # type: ignore[arg-type]
        resolved_name = name or path.stem
        handle = path.open(newline="", encoding="utf-8")
        close = True

    tmp_dir = out_dir / "ingest.tmp"
    tmp_dir.mkdir(parents=True, exist_ok=True)
    builders: list[_ColumnBuilder] = []
    try:
        with get_tracer().span("store.ingest") as span:
            reader = CsvChunkReader(
                handle,
                delimiter=delimiter,
                chunk_rows=chunk_rows,
                name=resolved_name,
            )
            builders = [
                _ColumnBuilder(
                    column_name,
                    position,
                    tmp_dir,
                    kinds.get(column_name) if kinds else None,
                )
                for position, column_name in enumerate(reader.header)
            ]
            n_rows = 0
            for chunk in reader:
                n_rows += len(chunk[0])
                for builder, cells in zip(builders, chunk):
                    builder.feed(cells)
            for builder in builders:
                builder.finalize()
            manifest = _finalize_store(
                out_dir,
                resolved_name,
                n_rows,
                chunk_rows,
                priority_seed,
                builders,
                partition_rows=partition_rows,
            )
            if span.enabled:
                span.set("table", resolved_name)
                span.set("rows", n_rows)
                span.set("columns", len(builders))
            get_metrics().increment("blaeu_store_ingests_total")
    except BaseException:
        for builder in builders:
            builder.abort()
        shutil.rmtree(tmp_dir, ignore_errors=True)
        # No manifest was written, so nothing under out_dir is a valid
        # store: drop the partial column/priority files too, leaving a
        # pre-existing (user-created) directory itself in place.
        if not (out_dir / "manifest.json").exists():
            shutil.rmtree(out_dir / "columns", ignore_errors=True)
            (out_dir / "priority.bin").unlink(missing_ok=True)
        raise
    finally:
        if close:
            handle.close()
    shutil.rmtree(tmp_dir, ignore_errors=True)
    return StoredTable(out_dir, manifest=manifest)


def append_csv(
    source: str | Path | IO[str],
    store_dir: str | Path,
    delimiter: str = ",",
    chunk_rows: int | None = None,
    partition_rows: int | None = None,
) -> StoredTable:
    """Append a CSV's rows to an existing store, in place.

    The CSV header must match the store's columns exactly (same names,
    same order); each column keeps its manifest kind — appended cells
    that do not fit a numeric column become missing, and categorical
    columns extend their dictionary with new labels in first-appearance
    order.  When the appended data is kind-compatible, the resulting
    store is byte-identical to a fresh ingest of the concatenated CSV:
    same files, same category order, same content fingerprint.

    The manifest is the commit point.  Data files grow first ("ab"
    appends), the priority permutation and fingerprint are recomputed
    over the full length, fresh zone-mapped partitions are built for the
    appended range only (existing partitions and their zones are kept
    verbatim), and only then is the manifest rewritten — with
    ``version`` bumped and ``previous_fingerprint`` recording the
    lineage.  Any failure before that point rolls the files back to
    their original sizes, so a crashed append leaves the store exactly
    as it was.

    Parameters
    ----------
    source:
        CSV path or open text file-like (header row included).
    store_dir:
        Existing store directory to grow.
    chunk_rows:
        Records per ingestion chunk; defaults to the store's own
        ``chunk_rows``.
    partition_rows:
        Rows per new partition; defaults to the store's current
        granularity (or the format default when it has none).
    """
    import json

    from repro.store.partitions import build_partitions

    store_dir = Path(store_dir)
    manifest = StoreManifest.load(store_dir)
    read_rows = chunk_rows or manifest.chunk_rows
    if partition_rows is None:
        partition_rows = (
            max(partition.rows for partition in manifest.partitions)
            if manifest.partitions
            else DEFAULT_PARTITION_ROWS
        )
    if hasattr(source, "read"):
        handle: IO[str] = source  # type: ignore[assignment]
        close = False
    else:
        handle = Path(source).open(newline="", encoding="utf-8")  # type: ignore[arg-type]
        close = True

    tmp_dir = store_dir / "append.tmp"
    tmp_dir.mkdir(parents=True, exist_ok=True)
    builders: list[_ColumnBuilder] = []
    try:
        with get_tracer().span("store.append") as span:
            reader = CsvChunkReader(
                handle,
                delimiter=delimiter,
                chunk_rows=read_rows,
                name=manifest.table,
            )
            expected = tuple(meta.name for meta in manifest.columns)
            if tuple(reader.header) != expected:
                raise ValueError(
                    f"append header {tuple(reader.header)!r} does not match "
                    f"store columns {expected!r}"
                )
            builders = [
                _ColumnBuilder(
                    meta.name,
                    position,
                    tmp_dir,
                    ColumnKind(meta.kind),
                    seed_categories=(
                        json.loads(
                            (store_dir / meta.files["categories"]).read_text(
                                encoding="utf-8"
                            )
                        )
                        if meta.kind == KIND_CATEGORICAL
                        else ()
                    ),
                )
                for position, meta in enumerate(manifest.columns)
            ]
            appended = 0
            for chunk in reader:
                appended += len(chunk[0])
                for builder, cells in zip(builders, chunk):
                    builder.feed(cells)
            for builder in builders:
                builder.finalize()
            if appended == 0:
                return StoredTable(store_dir, manifest=manifest)
            manifest = _apply_append(
                store_dir,
                manifest,
                builders,
                appended,
                partition_rows,
                build_partitions,
            )
            if span.enabled:
                span.set("table", manifest.table)
                span.set("appended_rows", appended)
                span.set("rows", manifest.n_rows)
            get_metrics().increment("blaeu_store_appends_total")
    except BaseException:
        for builder in builders:
            builder.abort()
        raise
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
        if close:
            handle.close()
    return StoredTable(store_dir, manifest=manifest)


def _apply_append(
    store_dir: Path,
    manifest: StoreManifest,
    builders: list[_ColumnBuilder],
    appended: int,
    partition_rows: int,
    build_partitions,
) -> StoreManifest:
    """Grow the store's files by the builders' output, then commit.

    Everything before ``manifest.save`` is undoable: original file sizes
    and category dictionaries are recorded up front, and any failure
    truncates the data files back and restores the priorities, leaving
    the on-disk store identical to its pre-append state.
    """
    import dataclasses
    import json

    old_rows = manifest.n_rows
    new_rows = old_rows + appended
    sizes: dict[Path, int] = {}
    category_texts: dict[Path, str] = {}
    for meta in manifest.columns:
        for role in ("values", "codes", "mask"):
            if role in meta.files:
                path = store_dir / meta.files[role]
                sizes[path] = path.stat().st_size
        if meta.kind == KIND_CATEGORICAL:
            path = store_dir / meta.files["categories"]
            category_texts[path] = path.read_text(encoding="utf-8")
    try:
        fingerprint = StreamingFingerprint(new_rows, manifest.chunk_rows)
        for builder, meta in zip(builders, manifest.columns):
            if builder.kind != meta.kind:
                raise ValueError(
                    f"column {meta.name!r}: appended kind {builder.kind!r} "
                    f"does not match store kind {meta.kind!r}"
                )
            if meta.kind == KIND_NUMERIC:
                _append_file(builder.values_path, store_dir / meta.files["values"])
                _append_file(builder.mask_path, store_dir / meta.files["mask"])
                fingerprint.add_numeric(
                    meta.name,
                    store_dir / meta.files["values"],
                    store_dir / meta.files["mask"],
                )
            else:
                categorical = builder._categorical
                assert categorical is not None
                _append_file(categorical.codes_path, store_dir / meta.files["codes"])
                _append_file(categorical.mask_path, store_dir / meta.files["mask"])
                categories = tuple(categorical.categories)
                (store_dir / meta.files["categories"]).write_text(
                    json.dumps(list(categories)), encoding="utf-8"
                )
                fingerprint.add_categorical(
                    meta.name,
                    store_dir / meta.files["codes"],
                    store_dir / meta.files["mask"],
                    categories,
                )
        write_priorities(store_dir, new_rows, manifest.priority_seed)
        fresh = build_partitions(
            store_dir,
            manifest.columns,
            new_rows,
            manifest.chunk_rows,
            partition_rows,
            start=old_rows,
        )
        partitions = (
            manifest.partitions + fresh if manifest.partitions else ()
        )
        updated = dataclasses.replace(
            manifest,
            n_rows=new_rows,
            fingerprint=fingerprint.hexdigest(),
            partitions=partitions,
            version=manifest.version + 1,
            previous_fingerprint=manifest.fingerprint,
        )
        updated.save(store_dir)
        return updated
    except BaseException:
        for path, size in sizes.items():
            with path.open("r+b") as handle:
                handle.truncate(size)
        for path, text in category_texts.items():
            path.write_text(text, encoding="utf-8")
        write_priorities(store_dir, old_rows, manifest.priority_seed)
        raise


def _append_file(tmp_path: Path, target: Path) -> None:
    with tmp_path.open("rb") as src, target.open("ab") as dst:
        shutil.copyfileobj(src, dst)


def _finalize_store(
    out_dir: Path,
    table_name: str,
    n_rows: int,
    chunk_rows: int,
    priority_seed: int,
    builders: list[_ColumnBuilder],
    partition_rows: int = DEFAULT_PARTITION_ROWS,
) -> StoreManifest:
    """Move finished column files into place, fingerprint, write manifest."""
    import json

    columns_dir = out_dir / "columns"
    columns_dir.mkdir(parents=True, exist_ok=True)
    fingerprint = StreamingFingerprint(n_rows, chunk_rows)
    metas: list[ColumnMeta] = []
    for builder in builders:
        stem = column_file_stem(builder.position)
        if builder.kind == KIND_NUMERIC:
            values_file = f"{stem}.values.bin"
            mask_file = f"{stem}.mask.bin"
            builder.values_path.replace(out_dir / values_file)
            builder.mask_path.replace(out_dir / mask_file)
            fingerprint.add_numeric(
                builder.name, out_dir / values_file, out_dir / mask_file
            )
            metas.append(
                ColumnMeta(
                    name=builder.name,
                    kind=KIND_NUMERIC,
                    files={"values": values_file, "mask": mask_file},
                )
            )
        else:
            categorical = builder._categorical
            assert categorical is not None
            codes_file = f"{stem}.codes.bin"
            mask_file = f"{stem}.mask.bin"
            categories_file = f"{stem}.categories.json"
            categorical.codes_path.replace(out_dir / codes_file)
            categorical.mask_path.replace(out_dir / mask_file)
            categories = tuple(categorical.categories)
            (out_dir / categories_file).write_text(
                json.dumps(list(categories)), encoding="utf-8"
            )
            fingerprint.add_categorical(
                builder.name,
                out_dir / codes_file,
                out_dir / mask_file,
                categories,
            )
            metas.append(
                ColumnMeta(
                    name=builder.name,
                    kind=KIND_CATEGORICAL,
                    files={
                        "codes": codes_file,
                        "mask": mask_file,
                        "categories": categories_file,
                    },
                )
            )
    write_priorities(out_dir, n_rows, priority_seed)
    # Zone maps come from a second, bounded pass over the just-written
    # column files (the CSV itself is still read exactly once): the
    # final kind of a tentative column is only known here, after any
    # promotion or demotion.
    from repro.store.partitions import build_partitions

    partitions = build_partitions(
        out_dir,
        tuple(metas),
        n_rows,
        chunk_rows,
        partition_rows,
    )
    manifest = StoreManifest(
        table=table_name,
        n_rows=n_rows,
        chunk_rows=chunk_rows,
        fingerprint=fingerprint.hexdigest(),
        columns=tuple(metas),
        priority_seed=priority_seed,
        partitions=partitions,
    )
    manifest.save(out_dir)
    return manifest
