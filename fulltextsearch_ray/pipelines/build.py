"""build_index — the distributed inverted-index construction pipeline.

Parquet-path fast shape (ONE streaming corpus pass, no pre-shuffle):

    file items (sorted listing + footer row counts → positional ids;
                the file list itself feeds the lineage)
      → map_batches(read_invert_batches_fn, file-bundled task pool)
          # read file → tokenize → local invert into compressed runs
          # + fused doc-stats sentinel rows (doc_len, sha256); each
          # invert call also writes its docs_meta (meta_cols) and
          # forward (store_forward) file: the ONE corpus read.  A
          # one-file corpus within GATHER_BYTES makes the same call
          # in-process (Ray would run it as one task anyway)
      → term_partitions(merge_runs_batch                # THE shuffle
                        + write_postings_partition)
          # per partition (ONE, in-process, for runs within
          # GATHER_BYTES): one payload blob (every term's bytes at one
          # address), the partition's catalog rows (per-term stats +
          # blob address) and its docs rows (the decoded sentinel
          # rows, doc_id-sorted); it returns one row of counters
      → manifest.json (counters summed from the task rows, + lineage)
        + meta.json  (driver)

Within ``GATHER_BYTES`` a one-file parquet session and a compaction
start no Ray execution at all, and a many-file parquet build starts
exactly one (the read+invert, whose runs the term shuffle drains).

Dataset-path (explicit doc_id_col / id_cols): normalize_corpus assigns
ids (sorted-key rank or passthrough), then InvertStage as above.

Streaming throughout: nothing materializes the corpus.  The term
shuffle (:func:`term_partitions`) merges runs within
``common.GATHER_BYTES`` in the driver; past it, the only all-to-all
exchange is a sort on ``term``.  A partition's commit is encoded in
memory (:func:`encode_postings_partition`) and then written
(:func:`write_postings_partition`); ``build_in_memory`` keeps the
encoded partitions instead.  Each build session appends a new SEGMENT;
query merges segments (the reference's posting-chain semantic,
``PostingListWriter.cs:114-159``);
``compact_index`` collapses chains.  Completed segments are
checkpoints: re-running a multi-segment build skips any segment whose
manifest validates (resume unit = segment).

A segment is its catalog, payload blobs and docs table, one file of
each per partition, plus the optional ``docs_meta`` and ``forward``
tables, one file per invert call.  Catalog files hold disjoint term
ranges, so together they are the term-sorted catalog.  Sentinel keys
are zero-padded doc ids, so on the parquet path docs files hold
disjoint doc ranges (on the dataset path they may overlap, and so may
the docs_meta and forward files; the searcher serves overlapping
files).  The segment commit reads no blob, catalog or docs rows back:
the manifest's counters are sums over the rows the tasks return (over
the input manifests, for a compaction's docs).  Compaction merges the
three doc-keyed tables by one rule (:func:`_merge_doc_table`).
"""

from __future__ import annotations

import os
import shutil
import time
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..sources.corpus import normalize_corpus
from ..stages.invert import (
    DEFAULT_BLOCK_CF,
    ReadInvertStage,
    invert_batch_fn,
    merge_runs_batch,
    read_invert_batches_fn,
)
from ..state.index import (
    FORMAT_VERSION,
    POSTINGS_SCHEMA,
    SEGMENTS_DIR,
    IndexMeta,
    SegmentManifest,
    _read_meta,
    load_manifest,
    load_meta,
    parquet_files,
    save_manifest,
    save_meta,
    segment_dir,
    segment_is_complete,
)


def compact_index(
    index_dir: str,
    *,
    block_cf: int = DEFAULT_BLOCK_CF,
) -> IndexMeta:
    """Merge ALL segments into one — the batch analog of collapsing the
    reference's per-session posting-list chains
    (``PostingListWriter.cs:114-159``) into single lists.

    Reads the whole (already compressed) posting rows of every segment
    from its catalog and blobs, merges each term's runs
    (:func:`term_partitions`), rewrites one segment, then swaps meta
    atomically.  When the catalog and blob bytes fit
    ``common.GATHER_BYTES`` the read runs in-process, and so does the
    merge while the rows it read fit too: such a compaction starts no
    Ray execution.  Past it the read is
    :func:`read_postings_dataset`'s Ray read, and the merge a sort.  Query results are identical before/after (the chain
    merge the searcher did at query time is now materialized).  The
    doc-keyed tables (``docs``, ``docs_meta``, ``forward``) merge by
    one rule, :func:`_merge_doc_table`: within ``common.GATHER_BYTES``
    a driver concat and sort, past it a Ray sort, one output per
    schema group.

    This is also the one migration path: it reads an index of any
    older format (which every other reader refuses, see
    :mod:`~..state.index`) and writes it in :data:`FORMAT_VERSION`,
    even when it has only one segment.
    """
    meta = _read_meta(index_dir)
    older = meta.version != FORMAT_VERSION
    # Sweep segment dirs that meta does not reference: a crash between
    # a previous compaction's save_meta and its old-segment rmtree loop
    # orphans every pre-compaction dir forever (no later path touches
    # them — disk roughly doubles per crashed compaction).  meta is the
    # source of truth and the index is single-writer, so unreferenced
    # dirs under segments/ are garbage by definition.
    seg_root = os.path.join(index_dir, SEGMENTS_DIR)
    if os.path.isdir(seg_root):
        for d_name in os.listdir(seg_root):
            if d_name not in meta.segments:
                shutil.rmtree(os.path.join(seg_root, d_name), ignore_errors=True)
    if not meta.segments or (len(meta.segments) == 1 and not older):
        return meta
    old_segments = list(meta.segments)
    inputs = _input_manifests(index_dir, old_segments)
    # Name derived from the INPUT SEGMENT LIST, not wall-clock time:
    # deterministic across crash retries (same inputs ⇒ same name, so
    # a partial dir from a crashed attempt is found and cleaned), and
    # collision-free with any live segment — the old `{count}-{int(
    # modified_at)}` scheme collided with a prior LIVE compact segment
    # when two compactions ran within one wall-clock second, and the
    # partial-dir rmtree below then deleted live data.
    import hashlib as _hl

    new_seg = "compact-" + _hl.sha1("|".join(old_segments).encode()).hexdigest()[:12]
    assert new_seg not in old_segments  # can't contain a hash of itself
    seg_path = segment_dir(index_dir, new_seg)
    if os.path.exists(seg_path):
        # a crashed earlier attempt left a partial dir; the name is
        # deterministic across retries and parquet writes APPEND, so
        # reusing it would double every posting file (df/cf 2x)
        shutil.rmtree(seg_path)
    os.makedirs(seg_path, exist_ok=True)

    # whole posting rows of either layout (payload blobs, or payloads
    # inline from before blobs), without sentinel rows: the input docs
    # tables merge below
    from ..functions import common

    items, size = _postings_items(index_dir, old_segments)
    runs = _read_postings(items) if size <= common.GATHER_BYTES else _postings_dataset(items, size)
    max_field, counters = _write_postings(runs, seg_path, block_cf)
    # the compacted postings carry no sentinel rows: the docs counters
    # are those of the input segments, whose doc ids are disjoint
    with_docs = [m for m in inputs if m.num_docs]
    counters.update(
        num_docs=sum(m.num_docs for m in inputs),
        total_tokens=sum(m.total_tokens for m in inputs),
        min_doc_id=min((m.min_doc_id for m in with_docs), default=0),
        max_doc_id=max((m.max_doc_id for m in with_docs), default=0),
    )

    # the doc-keyed tables: ids are disjoint across segments, so a merge
    # of their rows keeps every row (without it, compaction destroyed
    # highlight-from-store and per-doc metadata)
    from ..stages.forward import FORWARD_ROW_GROUP

    for sub, conform, row_group in (("docs", None, None), ("docs_meta", None, None),
                                    ("forward", _conform_forward, FORWARD_ROW_GROUP)):
        files = [f for seg in old_segments
                 for f in parquet_files(os.path.join(segment_dir(index_dir, seg), sub))]
        _merge_doc_table(files, os.path.join(seg_path, sub), conform, row_group)
    forward_ranges = _scan_doc_ranges(os.path.join(seg_path, "forward"), seg_path)

    _write_catalog_and_manifest(
        index_dir, new_seg, seg_path, old_segments, counters,
        forward_ranges=forward_ranges, block_cf=block_cf,
    )

    # an older header without a field count (0): the merging tasks
    # report the largest field id they wrote (field ids are 1-based —
    # the count is the max id)
    meta.num_fields = meta.num_fields or max(max_field, 1)
    meta.version = FORMAT_VERSION
    meta.segments = [new_seg]
    save_meta(index_dir, meta)
    for s in old_segments:
        shutil.rmtree(segment_dir(index_dir, s), ignore_errors=True)
    return meta


def _merge_doc_table(files: list[str], dst: str, conform=None, row_group_size=None) -> None:
    """Merge the doc-keyed parquet ``files`` (``docs``, ``docs_meta`` or
    ``forward`` rows of disjoint doc ids) into ``dst``, one doc_id-sorted
    output per schema group: sessions may disagree on a table's schema
    (``docs_meta`` columns vary; older ``docs`` carried meta columns),
    and the searcher reads a table per file.  ``conform`` maps a table
    of an older layout onto the current one before grouping.  A group
    whose footer ``total_byte_size`` fits ``common.GATHER_BYTES`` is
    concatenated and sorted in the driver into one file; past it, it
    streams through Ray (read → sort(doc_id) → write)."""
    import pyarrow.parquet as pq

    from ..functions import common

    conform = conform or (lambda t: t)
    groups: dict[str, list[str]] = {}
    sizes: dict[str, int] = {}
    for f in files:
        md = pq.ParquetFile(f).metadata
        key = str(conform(md.schema.to_arrow_schema().empty_table()).schema.remove_metadata())
        groups.setdefault(key, []).append(f)
        sizes[key] = sizes.get(key, 0) + common.footer_bytes(md)
    if groups:
        os.makedirs(dst, exist_ok=True)
    for i, (key, fs) in enumerate(groups.items()):
        if sizes[key] <= common.GATHER_BYTES:
            t = pa.concat_tables(conform(pq.read_table(f)) for f in fs).sort_by("doc_id")
            pq.write_table(t, os.path.join(dst, f"part-{i}.parquet"), row_group_size=row_group_size)
        else:
            ray.data.read_parquet(fs).map_batches(conform, batch_format="pyarrow").sort(
                "doc_id"
            ).write_parquet(dst, row_group_size=row_group_size)


def _conform_forward(b: pa.Table) -> pa.Table:
    """Forward-store rows in ``FORWARD_SCHEMA``; a file of an older
    format without ``field_id`` holds field 1 only."""
    from ..stages.forward import FORWARD_SCHEMA

    if "field_id" not in b.column_names:
        b = b.append_column("field_id", pa.array(np.ones(b.num_rows, dtype=np.int32)))
    return b.select(FORWARD_SCHEMA.names).cast(FORWARD_SCHEMA)


def _input_manifests(index_dir: str, segments: list[str]) -> list[SegmentManifest]:
    """The manifests of the segments a compaction merges; a ValueError
    names the first that cannot be read (its doc counters are unknown)."""
    out = []
    for s in segments:
        try:
            out.append(load_manifest(index_dir, s))
        except (OSError, TypeError, ValueError) as e:
            raise ValueError(
                f"index {index_dir}: segment {s} has no readable manifest ({e}); "
                "compact_index takes its doc counters from there"
            ) from None
    return out


def _catalog_columns(index_dir: str, segment: str) -> list[str]:
    """Column names of a segment's catalog (from its first file's
    footer; none when it has no catalog file)."""
    import pyarrow.parquet as pq

    files = parquet_files(os.path.join(segment_dir(index_dir, segment), "catalog"))
    return pq.read_schema(files[0]).names if files else []


def term_partitions(runs: "ray.data.Dataset | pa.Table", fn):
    """THE term shuffle: yield ``fn``'s output per term-range partition
    of ``runs``, each partition holding every run of its terms.  A
    dataset's runs stream once into block refs.  Within
    ``common.GATHER_BYTES`` they are ONE partition and ``fn`` runs
    in-process (the merge groups a term's runs itself); past it a sort
    on ``term``, fed from those refs so the runs never execute twice,
    gives ``fn`` one partition per Ray task.  Draining first pins
    nothing the sort would not: it buffers its whole input anyway.

    An Arrow table is runs already read in-process (a one-file
    session, a compaction read), held to the same rule by its
    ``nbytes``: within the budget it is the one in-process partition
    and never goes back through Ray; past it each of its chunks (an
    invert call's runs, a read file's rows) becomes one block of the
    sort.  Runs without rows never call ``fn``."""
    from ..functions import common

    if isinstance(runs, pa.Table):
        if runs.nbytes <= common.GATHER_BYTES:
            if runs.num_rows:
                yield fn(runs)
            return
        refs = [ray.put(pa.Table.from_batches([b])) for b in runs.to_batches() if b.num_rows]
    else:
        refs, size = common._gather(runs, float("inf"))
        if refs and size <= common.GATHER_BYTES:
            yield fn(pa.concat_tables(common._tables(refs)))
            return
    if refs:
        parts = ray.data.from_arrow_refs(refs).sort("term").map_batches(
            fn, batch_format="pyarrow", batch_size=None
        )
        # not to_arrow_refs: its schema fetch runs the sort (and fn's
        # writes) a second time
        yield from parts.iter_batches(batch_size=None, batch_format="pyarrow")


# What the call that writes a partition returns: one row of what
# it wrote and counted (see write_postings_partition)
_PARTITION_SCHEMA = pa.schema([
    ("max_field", pa.int64()),
    ("num_terms", pa.int64()), ("num_occurrences", pa.int64()),
    ("first_term", pa.string()), ("last_term", pa.string()),
    ("num_docs", pa.int64()), ("total_tokens", pa.int64()),
    ("min_doc_id", pa.uint64()), ("max_doc_id", pa.uint64()),
])


def write_postings_partition(rows: pa.Table, seg_path: str) -> pa.Table:
    """Commit one merged partition (term-sorted rows) under
    ``seg_path``: the blob, catalog and docs files of
    :func:`encode_postings_partition`, renamed into place, so a retried
    task overwrites its own files instead of adding a second copy
    (which would double df/cf and the docs).  Returns its counters as
    one :data:`_PARTITION_SCHEMA` row."""
    import pyarrow.parquet as pq

    from ..state.payloads import PAYLOAD_DIR, atomic_write

    if rows.num_rows == 0:
        return _PARTITION_SCHEMA.empty_table()
    stem, blob, cat, docs, row = encode_postings_partition(rows)
    if blob is not None:
        atomic_write(
            os.path.join(seg_path, PAYLOAD_DIR, stem + ".bin"),
            lambda tmp: Path(tmp).write_bytes(blob),
        )
        atomic_write(
            os.path.join(seg_path, "catalog", stem + ".parquet"),
            lambda tmp: pq.write_table(cat, tmp, row_group_size=65536),
        )
    if docs is not None:
        atomic_write(
            os.path.join(seg_path, "docs", stem + ".parquet"),
            lambda tmp: pq.write_table(docs, tmp),
        )
    return pa.Table.from_pylist([row], schema=_PARTITION_SCHEMA)


def encode_postings_partition(rows: pa.Table) -> tuple:
    """One merged partition (term-sorted rows, at least one) as
    its commit, in memory: ``(stem, blob, catalog, docs, counters)``.
    ``blob`` is the payload blob of its posting rows and ``catalog``
    their catalog rows, addressing ``payloads/<stem>.bin`` (both None
    without posting rows); ``docs`` is the docs rows of its doc-stats
    sentinel rows, by doc_id (None without them).  The stem is named
    from the rows.

    ``counters`` is a :data:`_PARTITION_SCHEMA` row as a dict: the
    largest field id its postings hold, its term count, occurrences and
    first/last term (null without terms), and, summed from its sentinel
    rows, the docs, the tokens and the doc id range they hold (null
    without docs)."""
    import hashlib

    from ..stages.invert import decode_docstats_rows
    from ..state.payloads import PAYLOAD_DIR, encode_blob, max_field_id

    keys = ("term", "first_doc", "block_id")
    ends = [tuple(rows[c][i].as_py() for c in keys) for i in (0, rows.num_rows - 1)]
    stem = "part-" + hashlib.sha1(repr((ends, rows.num_rows)).encode()).hexdigest()[:16]
    sentinel = pc.less(rows["bucket"], 0)
    posting = rows.filter(pc.invert(sentinel))
    stats = rows.filter(pc.and_(sentinel, pc.greater(rows["df"], 0)))
    row = {
        "max_field": max_field_id(posting["fields"].combine_chunks()),
        "num_terms": 0, "num_occurrences": int(pc.sum(posting["cf"]).as_py() or 0),
        "first_term": None, "last_term": None,
        "num_docs": int(pc.sum(stats["df"]).as_py() or 0),
        "total_tokens": int(pc.sum(stats["cf"]).as_py() or 0),
        "min_doc_id": pc.min(stats["first_doc"]).as_py(),
        "max_doc_id": pc.max(stats["last_doc"]).as_py(),
    }
    blob = cat = docs = None
    if posting.num_rows:
        blob, directory = encode_blob(posting)
        cat = _catalog_rows(posting, os.path.join(PAYLOAD_DIR, stem + ".bin"), directory)
        row.update(num_terms=cat.num_rows, first_term=cat["term"][0].as_py(),
                   last_term=cat["term"][-1].as_py())
    if stats.num_rows:
        docs = decode_docstats_rows(stats).sort_by("doc_id")
    return stem, blob, cat, docs, row


def _catalog_rows(posting: pa.Table, blob: str, directory) -> pa.Table:
    """Catalog rows of term-sorted posting rows (no sentinel rows):
    :func:`aggregate_catalog` plus each term's payload address in the
    blob at relative path ``blob``, whose ``directory`` (one record per
    term, in row order) :func:`~..state.payloads.encode_blob` returned."""
    cat = aggregate_catalog(posting)
    offsets, _hdr, bm25_len, length = directory
    # records follow the row order, which must be the catalog's term order
    if len(offsets) != cat.num_rows or not pc.unique(posting["term"]).equals(
        cat["term"].combine_chunks()
    ):
        raise ValueError(f"{blob}: {len(offsets)} payload records do not match the "
                         f"{cat.num_rows} terms of its rows in order")
    address = {
        "file": pa.array([blob] * cat.num_rows, pa.string()),
        "offset": pa.array(offsets, pa.int64()),
        "bm25_len": pa.array(bm25_len, pa.int64()),
        "len": pa.array(length, pa.int64()),
    }
    return pa.table({**{c: cat[c] for c in cat.column_names}, **address})


def empty_catalog() -> pa.Table:
    """Catalog rows of no term, typed as :func:`_catalog_rows` types them."""
    empty = np.empty(0, dtype=np.int64)
    return _catalog_rows(POSTINGS_SCHEMA.empty_table(), "", (empty,) * 4)


def read_postings_dataset(index_dir: str, segments: list[str]) -> ray.data.Dataset:
    """Whole posting rows (the in-memory run schema, no doc-stats
    sentinel rows) of the given segments, as a Ray read: the dump's,
    and a compaction's past ``common.GATHER_BYTES`` (within it
    :func:`compact_index` reads the same items in-process,
    :func:`_read_postings`).  A segment's rows come from its catalog
    files and the blobs they address
    (:func:`~..state.payloads.read_blob_rows`); a segment written before
    blobs is read from its inline-payload postings parquet files
    instead, once, by the compaction that migrates it."""
    return _postings_dataset(*_postings_items(index_dir, segments))


def _postings_items(index_dir: str, segments: list[str]) -> tuple[list[dict], int]:
    """The read items of the segments' whole posting rows, one per
    catalog file (per postings file for a segment written before
    blobs), and the bytes they read: those files and the blobs."""
    from ..state.payloads import PAYLOAD_DIR, predates_blobs

    items, size = [], 0
    for s in segments:
        seg_path = segment_dir(index_dir, s)
        inline = predates_blobs(_catalog_columns(index_dir, s))
        files = parquet_files(os.path.join(seg_path, "postings" if inline else "catalog"))
        items.extend({"path": f, "seg": seg_path, "inline": inline} for f in files)
        if not inline:
            files = files + parquet_files(os.path.join(seg_path, PAYLOAD_DIR), "*.bin")
        size += sum(os.path.getsize(f) for f in files)
    return items, size


def _postings_dataset(items: list[dict], size: int) -> ray.data.Dataset:
    """The Ray read of :func:`_postings_items`' ``items`` (``size``
    bytes).  A read task takes whole files, grouped to about
    ``target_min_block_size`` bytes each (the rule
    ``ray.data.read_parquet`` sizes its blocks by), so a shuffle after
    it runs as many partitions as a parquet read of those bytes would
    (one task per file cost the ingest workload's compaction 1.6-1.8 s
    of CPU against 0.9-1.2 s, 1 CPU)."""
    n = max(1, min(len(items), size // ray.data.DataContext.get_current().target_min_block_size))
    return ray.data.from_items(items, override_num_blocks=n).map_batches(
        _read_postings_batch, batch_format="pyarrow", batch_size=None
    )


def _read_postings_batch(batch: pa.Table) -> pa.Table:
    return _read_postings(batch.to_pylist())


def _read_postings(items: list[dict]) -> pa.Table:
    """The whole posting rows of read ``items`` (:func:`_postings_items`)."""
    import pyarrow.parquet as pq

    from ..state.payloads import read_blob_rows

    out = [POSTINGS_SCHEMA.empty_table()]
    for it in items:
        t = pq.read_table(it["path"])
        out.append(_inline_rows(t) if it["inline"] else read_blob_rows(t, it["seg"]))
    return pa.concat_tables(out)


def _inline_rows(t: pa.Table) -> pa.Table:
    """The posting rows of a postings file written before payload blobs
    (payloads inline, doc-stats sentinel rows among them).  Files from
    before n_docs existed take df as each block's unique-doc count, the
    fallback the searcher's catalog reader applied."""
    t = t.filter(pc.greater_equal(t["bucket"], 0))
    if "n_docs" not in t.column_names:
        t = t.append_column("n_docs", t["df"])
    t = t.set_column(t.column_names.index("n_docs"), "n_docs", pc.coalesce(t["n_docs"], t["df"]))
    return t.select(POSTINGS_SCHEMA.names).cast(POSTINGS_SCHEMA)


def _write_postings(runs: "ray.data.Dataset | pa.Table", seg_path: str, block_cf: int) -> tuple[int, dict]:
    """Shuffle + merge ``runs`` (:func:`term_partitions`) and write
    ``<seg>/payloads``, ``<seg>/catalog`` and ``<seg>/docs``: the call
    that merges a partition also commits it
    (:func:`write_postings_partition`), so a partition becomes at most
    one payload blob, one catalog file and one docs file, and runs
    within ``GATHER_BYTES`` become one of each.  Returns the largest
    field id written (0 for no postings) and the segment manifest's
    counters over the partition rows: sums, and the doc id range.

    Partitions hold disjoint term ranges, so each term lies in exactly
    one partition (checked here on the ranges the partitions return),
    and the catalog files together are the term-sorted catalog."""

    def merge_and_write(b: pa.Table) -> pa.Table:
        return write_postings_partition(merge_runs_batch(b, block_cf=block_cf), seg_path)

    parts = [p for t in term_partitions(runs, merge_and_write) for p in t.to_pylist()]
    _check_one_file_per_term(seg_path, parts)
    with_docs = [p for p in parts if p["num_docs"]]
    counters = {c: sum(p[c] for p in parts)
                for c in ("num_terms", "num_occurrences", "num_docs", "total_tokens")}
    counters["min_doc_id"] = min((p["min_doc_id"] for p in with_docs), default=0)
    counters["max_doc_id"] = max((p["max_doc_id"] for p in with_docs), default=0)
    return max((p["max_field"] for p in parts), default=0), counters


def _check_one_file_per_term(seg_path: str, parts: list[dict]) -> None:
    """Raise ValueError when two partition rows' (first, last) term
    ranges overlap: a searcher reads one address per term and segment,
    so a term's postings in the second file would go unread."""
    bounds = sorted((p["first_term"], p["last_term"]) for p in parts if p["num_terms"])
    if any(lo <= hi for (_lo, hi), (lo, _hi) in zip(bounds, bounds[1:])):
        raise ValueError(f"{seg_path}: a term's postings span two payload blobs")


def _scan_doc_ranges(dir_path: str, seg_path: str) -> list:
    """[relpath, min_doc, max_doc] per parquet file under ``dir_path``
    (footer statistics of the first column only), sorted by min —
    the forward-store range catalog shape."""
    import pyarrow.parquet as pq

    out: list = []
    for f in parquet_files(dir_path):
        md = pq.ParquetFile(f).metadata
        dmins, dmaxs = [], []
        for rg in range(md.num_row_groups):
            st = md.row_group(rg).column(0).statistics
            if st is not None and st.has_min_max:
                dmins.append(st.min)
                dmaxs.append(st.max)
        if dmins:
            out.append([os.path.relpath(f, seg_path), min(dmins), max(dmaxs)])
    out.sort(key=lambda r: r[1])
    return out


def _scan_table_stats(dir_path: str, seg_path: str) -> dict:
    """Manifest-persisted footer stats for a key-sorted table directory
    (catalog or docs): relpath → {num_rows, columns, row_groups:
    [[key_min, key_max, n_rows], ...]}.  One footer read per file
    HERE, at build time, so every cold searcher actor afterwards reads
    ONE manifest JSON instead of O(files) footers.  The list position
    of a group is its row-group index.  A file's last group may have
    0 rows and no statistics (pyarrow writes an empty table as one
    such group): it is left out.  Any other group without key
    statistics raises ValueError, as the searcher pages the table by
    these ranges."""
    import pyarrow.parquet as pq

    out: dict = {}
    for f in parquet_files(dir_path):
        md = pq.ParquetFile(f).metadata
        groups = []
        for rg in range(md.num_row_groups):
            rgm = md.row_group(rg)
            st = rgm.column(0).statistics
            if st is not None and st.has_min_max:
                groups.append([st.min, st.max, rgm.num_rows])
            elif rgm.num_rows or rg + 1 < md.num_row_groups:
                raise ValueError(f"{f}: row group {rg} has no key statistics")
        out[os.path.relpath(f, seg_path)] = {
            "num_rows": md.num_rows,
            "columns": list(md.schema.to_arrow_schema().names),
            "row_groups": groups,
        }
    return out


def cap_lineage(files: list[str], budget: int = 10_000) -> list[str]:
    """Keep the manifest's provenance list O(budget): past the budget,
    store one summary line (count + lexical range) plus a head/tail
    sample instead of every path — a 10^12-file build must not write a
    10^12-entry JSON manifest.  Lineage is provenance-only (resume
    keys on segment completeness, never on this list)."""
    if len(files) <= budget:
        return list(files)
    head = files[: budget // 2]
    tail = files[len(files) - (budget - budget // 2):]
    return [
        f"<lineage summary: {len(files)} files, {files[0]} .. {files[-1]}>",
        *head,
        *tail,
    ]


def aggregate_catalog(blocks: pa.Table) -> pa.Table:
    """Per-term catalog rows (term, df, cf, max_tf, df_docs, first_doc,
    last_doc, n_blocks) sorted by term, from posting-block stat rows —
    the one catalog aggregate of the persistent and in-memory indexes."""
    return (
        blocks.group_by("term")
        .aggregate(
            [("df", "sum"), ("cf", "sum"), ("max_tf", "max"), ("n_docs", "sum"),
             ("first_doc", "min"), ("last_doc", "max"), ("term", "count")]
        )
        .rename_columns(["term", "df", "cf", "max_tf", "df_docs", "first_doc", "last_doc", "n_blocks"])
        .sort_by("term")
    )


def _write_catalog_and_manifest(
    index_dir: str, segment: str, seg_path: str, lineage: list[str], counters: dict,
    forward_ranges: list | None = None, block_cf: int = 0,
) -> "SegmentManifest":
    """The segment commit shared by build_index and compact_index: the
    manifest, with ``counters`` (the reference's
    ``IndexBuilderStatistics`` aggregates, as :func:`_write_postings`
    returns them) and the footer stats of the catalog and docs files.
    When no partition held a term (an empty corpus, or a compaction of
    sentinel-only segments), none wrote a catalog file, and one empty
    typed file stands in for them: a searcher checks its columns.  An
    empty docs file stands in the same way when no partition held a
    doc."""
    import pyarrow.parquet as pq

    from ..stages.invert import decode_docstats_rows

    cat_dir = os.path.join(seg_path, "catalog")
    docs_dir = os.path.join(seg_path, "docs")
    if not counters["num_terms"]:
        os.makedirs(cat_dir, exist_ok=True)
        pq.write_table(empty_catalog(), os.path.join(cat_dir, "part-0.parquet"))
    if not os.path.isdir(docs_dir):
        os.makedirs(docs_dir)
        pq.write_table(
            decode_docstats_rows(POSTINGS_SCHEMA.empty_table()),
            os.path.join(docs_dir, "part-0.parquet"),
        )
    manifest = SegmentManifest(
        name=segment,
        **counters,
        input_lineage=lineage,
        created_at=time.time(),
        complete=True,
        forward_ranges=forward_ranges or [],
        catalog_stats=_scan_table_stats(cat_dir, seg_path),
        docs_stats=_scan_table_stats(docs_dir, seg_path),
        block_cf=block_cf,
    )
    save_manifest(index_dir, manifest)
    return manifest


def read_invert_runs(path: str, *, start_id: int, **stage_kw) -> "tuple[ray.data.Dataset | pa.Table, list[str]]":
    """``(runs, files)`` of the parquet corpus at ``path`` with
    positional doc ids from ``start_id``: the fused read + tokenize +
    local invert (+ doc-stats sentinel rows, and the doc tables a
    ``seg_path`` asks for) of :class:`~..stages.invert.ReadInvertStage`,
    built from ``stage_kw``, gives the posting runs that
    :func:`term_partitions` shuffles; ``files`` is the sorted file list.

    A corpus of ONE file whose footer bytes (the listing's ``bytes``)
    fit ``common.GATHER_BYTES`` is read and inverted in-process, by
    the stage its one Ray task would run, on the same one-row item
    table, and the runs come back as one Arrow table: same runs and
    files, no Ray execution.  The stage, not its task entry
    (:func:`~..stages.invert.read_invert_batches_fn`): the entry's
    worker settings (one Arrow thread, no heap trim) would stay with
    the caller's process for the rest of its life.

    Any other corpus goes to a task pool.  File items are 1-row
    blocks, so ``batch_size`` counts FILES: a task bundles several and
    groups its small files into ``chunk_rows``-doc invert calls (fewer,
    larger runs into the term shuffle), while keeping ≥4 tasks per CPU
    for balance.  A TASK pool, not an actor
    pool: stage construction is config-only, actor launch/ramp was pure
    critical-path overhead (interleaved A/B: ~2× wall on a 60k-doc build
    vs tasks), and tasks can never starve the downstream AllToAll term
    sort (see functions/similarity.py)."""
    from ..functions import common
    from ..sources.corpus import corpus_file_items

    items = corpus_file_items(path, start_id=start_id)
    files = [it["file"] for it in items]
    if len(items) == 1 and items[0]["bytes"] <= common.GATHER_BYTES:
        return pa.concat_tables(ReadInvertStage(**stage_kw)(pa.Table.from_pylist(items))), files
    pool = max(2, int(ray.cluster_resources().get("CPU", 8)))
    runs = ray.data.from_items(items, override_num_blocks=len(items)).map_batches(
        read_invert_batches_fn,
        fn_kwargs=stage_kw,
        batch_format="pyarrow",
        batch_size=max(1, len(items) // (pool * 4)),
    )
    return runs, files


def build_index(
    source: ray.data.Dataset | str,
    index_dir: str,
    *,
    text_col: str = "text",
    text_cols: list[str] | None = None,
    doc_id_col: str | None = None,
    id_cols: list[str] | None = None,
    meta_cols: tuple[str, ...] = (),
    segment: str | None = None,
    block_cf: int = DEFAULT_BLOCK_CF,
    batch_size: int | None = 1024,
    overwrite: bool = False,
    store_forward: bool = False,
    lineage_budget: int = 10_000,
) -> IndexMeta:
    """Build (or incrementally extend) a persistent index.

    ``source`` is a Dataset or a parquet path.  When ``doc_id_col`` is
    None, deterministic ids are assigned from ``id_cols`` rank starting
    at the index's ``next_doc_id`` (incremental sessions continue the
    id space, mirroring the reference header contract,
    ``PersistentIndexInfo.cs:36-51``).
    """
    if overwrite and os.path.exists(index_dir):
        shutil.rmtree(index_dir)

    try:
        meta = load_meta(index_dir)
    except FileNotFoundError:
        meta = IndexMeta(created_at=time.time())

    if segment is None:
        segment = f"seg-{len(meta.segments):05d}"
    if segment in meta.segments and segment_is_complete(index_dir, segment):
        return meta  # checkpoint hit: segment already built

    seg_path = segment_dir(index_dir, segment)
    if os.path.exists(seg_path):
        shutil.rmtree(seg_path)  # incomplete previous attempt
    os.makedirs(seg_path, exist_ok=True)

    # ONE corpus pass: each invert call tokenizes its batch into posting
    # runs and a doc-stats sentinel row, and writes the batch's
    # docs_meta and forward files; then term shuffle → merge → write
    # (blobs, catalog, docs)
    stage_kw = dict(
        text_col=text_col, text_cols=text_cols, block_cf=block_cf,
        seg_path=seg_path, meta_cols=tuple(meta_cols), store_forward=store_forward,
    )
    input_lineage = None
    if isinstance(source, str):
        cols = sorted({*(text_cols or [text_col]), *meta_cols, *([doc_id_col] if doc_id_col else []), *(id_cols or [])})
    if isinstance(source, str) and doc_id_col is None and id_cols is None:
        # positional deterministic ids straight from the parquet
        # layout: fused read+invert, no shuffle before the term sort
        runs, files = read_invert_runs(source, start_id=meta.next_doc_id, columns=cols, **stage_kw)
        # the CAP bounds what the manifest persists
        input_lineage = cap_lineage(files, lineage_budget)
    else:
        src = ray.data.read_parquet(source, columns=cols) if isinstance(source, str) else source
        ds = normalize_corpus(src, text_col, doc_id_col=doc_id_col, id_cols=id_cols, start_id=meta.next_doc_id)
        runs = ds.map_batches(
            invert_batch_fn,
            fn_kwargs=dict(stage_kw, doc_id_col="doc_id", emit_docstats=True),
            batch_format="pyarrow",
            batch_size=batch_size,
        )
    _max_field, counters = _write_postings(runs, seg_path, block_cf)
    forward_ranges = _scan_doc_ranges(os.path.join(seg_path, "forward"), seg_path)

    if input_lineage is not None:
        lineage = input_lineage
    elif hasattr(source, "input_files"):
        try:
            lineage = cap_lineage(source.input_files() or [], lineage_budget)
        except Exception:
            lineage = []
    else:
        lineage = []
    # --- per-segment counters + lineage
    manifest = _write_catalog_and_manifest(
        index_dir, segment, seg_path, lineage, counters,
        forward_ranges=forward_ranges, block_cf=block_cf,
    )

    if segment not in meta.segments:
        meta.segments.append(segment)
    # Corpus totals are recomputed as the SUM over segment manifests,
    # not incremented: a segment that was listed in meta but lost its
    # manifest (version skew, corruption) gets rebuilt above, and a
    # `+=` would re-add its docs/tokens on top of the counts an
    # earlier save_meta already included — permanently inflating
    # num_docs and avgdl (every BM25 idf would be silently wrong).
    try:
        manifests = [load_manifest(index_dir, s) for s in meta.segments]
        meta.num_docs = sum(m.num_docs for m in manifests)
        meta.total_tokens = sum(m.total_tokens for m in manifests)
    except (OSError, TypeError, ValueError):
        # a sibling manifest is unreadable: fall back to the additive
        # update rather than corrupting the totals with a partial sum
        meta.num_docs += manifest.num_docs
        meta.total_tokens += manifest.total_tokens
    meta.num_fields = max(meta.num_fields, len(text_cols) if text_cols else 1)
    meta.next_doc_id = max(meta.next_doc_id, manifest.max_doc_id + 1)
    save_meta(index_dir, meta)
    return meta
