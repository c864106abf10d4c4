"""build_index — the distributed inverted-index construction pipeline.

Parquet-path fast shape (ONE streaming corpus pass, no pre-shuffle):

    file items (sorted listing + footer row counts → positional ids)
      → map_batches(read_invert_batches_fn, file-bundled task pool)
          # read file → tokenize → local invert into compressed runs
          # + fused doc-stats sentinel rows (doc_len, sha256)
      → sort("term") → map_batches(merge_runs_batch     # THE shuffle
                                   + write_postings_partition)
          # per sort partition, in the merging task: one payload blob
          # (every term's bytes at one address), the partition's
          # catalog rows (per-term stats + blob address) and its docs
          # rows (the decoded sentinel rows, doc_id-sorted); the task
          # returns one row of counters
      → manifest.json (counters summed from the task rows, + lineage)
        + meta.json  (driver)

Dataset-path (explicit doc_id_col / id_cols): normalize_corpus assigns
ids (sorted-key rank or passthrough), then InvertStage as above.

Streaming throughout: nothing materializes the corpus; the only
all-to-all exchange is the sort on ``term`` over compressed partial
runs (:func:`_write_postings`, shared with ``compact_index``;
:func:`merge_term_runs` is the same sort + merge without the write,
for ``build_in_memory``).  Each build session appends a new SEGMENT;
query merges segments (the reference's posting-chain semantic,
``PostingListWriter.cs:114-159``);
``compact_index`` collapses chains.  Completed segments are
checkpoints: re-running a multi-segment build skips any segment whose
manifest validates (resume unit = segment).

A segment is its catalog, payload blobs and docs table, one file of
each per sort partition.  Catalog files hold disjoint term ranges, so
together they are the term-sorted catalog.  Sentinel keys are
zero-padded doc ids, so on the parquet path docs files hold disjoint
doc ranges (on the dataset path they may overlap; the searcher's docs
tables serve overlapping files).  The segment commit reads no blob,
catalog or docs rows back: the manifest's counters are sums over the
rows the tasks return (over the input manifests, for a compaction's
docs).
"""

from __future__ import annotations

import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..sources.corpus import normalize_corpus, sha256_hex
from ..stages.invert import (
    DEFAULT_BLOCK_CF,
    invert_batch_fn,
    read_invert_batches_fn,
)
from ..state.index import (
    POSTINGS_SCHEMA,
    SEGMENTS_DIR,
    IndexMeta,
    SegmentManifest,
    load_manifest,
    load_meta,
    save_manifest,
    save_meta,
    segment_dir,
    segment_is_complete,
)
from ..tokenizer import token_counts


def compact_index(
    index_dir: str,
    *,
    block_cf: int = DEFAULT_BLOCK_CF,
    docs_driver_budget: int = 5_000_000,
    store_copy_file_budget: int = 256,
) -> IndexMeta:
    """Merge ALL segments into one — the batch analog of collapsing the
    reference's per-session posting-list chains
    (``PostingListWriter.cs:114-159``) into single lists.

    Re-shuffles the (already compressed) posting rows of every segment
    by term, merges runs, rewrites one segment, then swaps meta
    atomically.  Query results are identical before/after (the chain
    merge the searcher did at query time is now materialized).

    This is also the one migration path: it reads postings of every
    layout, so an index with a segment written before payload blobs
    (which a searcher refuses) is rewritten even when it has only that
    one segment.
    """
    import pyarrow.parquet as pq

    from ..state.payloads import predates_blobs

    meta = load_meta(index_dir)
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
    if not meta.segments or (
        len(meta.segments) == 1 and not predates_blobs(_catalog_columns(index_dir, meta.segments[0]))
    ):
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
    runs = read_postings_dataset(index_dir, old_segments)
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

    # docs table: merge of per-segment docs (ids are disjoint).  Small
    # tables concat on the driver; past the budget the merge streams
    # through Ray (read → sort(doc_id) → partitioned write).
    docs_dirs = [os.path.join(segment_dir(index_dir, s), "docs") for s in old_segments]
    os.makedirs(os.path.join(seg_path, "docs"), exist_ok=True)
    # Sessions may disagree on the docs schema (legacy builds stored
    # meta columns directly in docs; current ones use docs_meta) — a
    # plain concat/union raises ArrowInvalid and the index could never
    # be compacted.  Unify permissively: missing columns fill with
    # null, which is exactly the searcher's extra-docs-columns
    # metadata fallback semantics for docs that lack a value.
    if counters["num_docs"] > docs_driver_budget:
        doc_files = [f for d in docs_dirs for f in _parquet_files(d)]
        by_docs_schema: dict[str, list[str]] = {}
        for f in doc_files:
            by_docs_schema.setdefault(str(pq.ParquetFile(f).schema_arrow), []).append(f)
        if len(by_docs_schema) == 1:
            ds_docs = ray.data.read_parquet(doc_files)
        else:
            uni = pa.unify_schemas(
                [pq.ParquetFile(fs[0]).schema_arrow for fs in by_docs_schema.values()],
                promote_options="permissive",
            )

            def conform(b: pa.Table, _u=uni) -> pa.Table:
                cols = []
                for fld in _u:
                    if fld.name in b.column_names:
                        cols.append(b[fld.name].cast(fld.type))
                    else:
                        cols.append(pa.nulls(b.num_rows, fld.type))
                return pa.table(dict(zip(_u.names, cols)))

            parts = [
                ray.data.read_parquet(fs).map_batches(conform, batch_format="pyarrow")
                for fs in by_docs_schema.values()
            ]
            ds_docs = parts[0] if len(parts) == 1 else parts[0].union(*parts[1:])
        ds_docs.sort("doc_id").write_parquet(os.path.join(seg_path, "docs"))
    else:
        docs = pa.concat_tables(
            (pq.read_table(d) for d in docs_dirs), promote_options="permissive"
        )
        docs = docs.take(pa.array(np.argsort(docs["doc_id"].to_numpy(zero_copy_only=False))))
        pq.write_table(docs, os.path.join(seg_path, "docs", "part-0.parquet"))

    # carry the forward store and docs_meta tables into the compact
    # segment (they are doc-keyed, ids are disjoint across segments —
    # a file merge preserves every row); without this, compaction
    # destroyed highlight-from-store and per-doc metadata.  Below
    # ``store_copy_file_budget`` files the merge is a driver copy loop
    # (cheap, schema-agnostic); past it the store REWRITES through Ray
    # (read → sort(doc_id) → partitioned write) so a many-thousand-file
    # segment set never runs a per-file driver loop.
    for sub in ("forward", "docs_meta"):
        src_files: list[tuple[str, str]] = []
        for s in old_segments:
            src = os.path.join(segment_dir(index_dir, s), sub)
            src_files.extend((s, f) for f in _parquet_files(src))
        if not src_files:
            continue
        dst = os.path.join(seg_path, sub)
        os.makedirs(dst, exist_ok=True)
        if len(src_files) <= store_copy_file_budget:
            for s, f in src_files:
                shutil.copy2(f, os.path.join(dst, f"{s}-{os.path.basename(f)}"))
            continue
        # STREAMING REWRITE: group by file schema (sessions may differ —
        # legacy forward stores lack field_id; docs_meta columns vary)
        by_schema: dict[str, list[str]] = {}
        for _s, f in src_files:
            by_schema.setdefault(str(pq.ParquetFile(f).schema_arrow), []).append(f)
        if sub == "forward":
            from ..stages.forward import FORWARD_SCHEMA

            def norm_fwd(b: pa.Table) -> pa.Table:
                if "field_id" not in b.column_names:
                    b = b.append_column(
                        "field_id", pa.array(np.ones(b.num_rows, dtype=np.int32))
                    )
                return b.select(FORWARD_SCHEMA.names).cast(FORWARD_SCHEMA)

            parts = [
                ray.data.read_parquet(files).map_batches(norm_fwd, batch_format="pyarrow")
                for files in by_schema.values()
            ]
            # one schema after normalization → ONE global sort: output
            # file doc ranges stay disjoint for the range catalog
            ds_all = parts[0] if len(parts) == 1 else parts[0].union(*parts[1:])
            ds_all.sort("doc_id").write_parquet(dst)
        else:
            # docs_meta has no range catalog (directory filter reads):
            # each schema group rewrites independently, mirroring the
            # copy path's mixed-schema directory layout exactly
            for files in by_schema.values():
                ray.data.read_parquet(files).sort("doc_id").write_parquet(dst)
    forward_ranges = _scan_doc_ranges(os.path.join(seg_path, "forward"), seg_path)

    _write_catalog_and_manifest(
        index_dir, new_seg, seg_path, old_segments, counters,
        forward_ranges=forward_ranges, block_cf=block_cf,
    )

    if not meta.num_fields and max_field:
        # Legacy meta (num_fields=0, field count UNKNOWN) kept pruned
        # BM25 on the loosest tf→∞ upper bound forever.  Compaction is
        # the one moment the true count becomes derivable cheaply: the
        # merging tasks report the largest field id they wrote (field
        # ids are 1-based — the count is the max id).
        meta.num_fields = max_field
    meta.segments = [new_seg]
    save_meta(index_dir, meta)
    for s in old_segments:
        shutil.rmtree(segment_dir(index_dir, s), ignore_errors=True)
    return meta


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


def _parquet_files(dir_path: str, pattern: str = "*.parquet") -> list[str]:
    """The parquet (or ``pattern``) files under ``dir_path``, sorted;
    none when it is missing."""
    import glob as _glob

    return sorted(_glob.glob(os.path.join(dir_path, "**", pattern), recursive=True))


def _catalog_columns(index_dir: str, segment: str) -> list[str]:
    """Column names of a segment's catalog (from its first file's
    footer; none when it has no catalog file)."""
    import pyarrow.parquet as pq

    files = _parquet_files(os.path.join(segment_dir(index_dir, segment), "catalog"))
    return pq.read_schema(files[0]).names if files else []


def merge_term_runs(runs: ray.data.Dataset, block_cf: int) -> ray.data.Dataset:
    """THE term shuffle: sort posting runs on ``term`` and merge each
    sorted block with :func:`merge_runs_batch`.

    A sort-based shuffle lands every term's runs contiguously in one
    block, so the whole-block vectorized merge avoids per-group
    scheduling (``map_groups`` costs ~ms per key, fatal at realistic
    million-term vocabularies).  Each output block is term-sorted and
    the blocks hold disjoint term ranges."""
    from ..stages.invert import merge_runs_batch

    return runs.sort("term").map_batches(
        lambda b: merge_runs_batch(b, block_cf=block_cf),
        batch_format="pyarrow",
        batch_size=None,
    )


def _merge_and_write(batch: pa.Table, *, block_cf: int, seg_path: str) -> pa.Table:
    from ..stages.invert import merge_runs_batch

    return write_postings_partition(merge_runs_batch(batch, block_cf=block_cf), seg_path)


# What the task that writes a sort partition returns: one row of what
# it wrote and counted (see write_postings_partition)
_PARTITION_SCHEMA = pa.schema([
    ("max_field", pa.int64()),
    ("num_terms", pa.int64()), ("num_occurrences", pa.int64()),
    ("first_term", pa.string()), ("last_term", pa.string()),
    ("num_docs", pa.int64()), ("total_tokens", pa.int64()),
    ("min_doc_id", pa.uint64()), ("max_doc_id", pa.uint64()),
])


def write_postings_partition(rows: pa.Table, seg_path: str) -> pa.Table:
    """Commit one merged sort partition (term-sorted rows): the payload
    blob of its posting rows, the partition's catalog rows (per-term
    stats plus each term's address, from the directory the blob write
    returns) and the docs rows its doc-stats sentinel rows carry, sorted
    by doc_id.  The files share one stem named from the rows and are
    renamed into place, so a retried task overwrites its own files
    instead of adding a second copy (which would double df/cf and the
    docs).

    Returns one :data:`_PARTITION_SCHEMA` row: the largest field id its
    postings hold, its term count, occurrences and first/last term (null
    without terms), and, summed from its sentinel rows, the docs, the
    tokens and the doc id range they hold (null without docs)."""
    import hashlib

    import pyarrow.parquet as pq

    from ..stages.invert import decode_docstats_rows
    from ..state.payloads import PAYLOAD_DIR, atomic_write, max_field_id, write_blob

    if rows.num_rows == 0:
        return _PARTITION_SCHEMA.empty_table()
    keys = ("term", "first_doc", "block_id")
    ends = [tuple(rows[c][i].as_py() for c in keys) for i in (0, rows.num_rows - 1)]
    stem = "part-" + hashlib.sha1(repr((ends, rows.num_rows)).encode()).hexdigest()[:16]
    sentinel = pc.less(rows["bucket"], 0)
    posting = rows.filter(pc.invert(sentinel))
    stats = rows.filter(pc.and_(sentinel, pc.greater(rows["df"], 0)))
    row = {
        "max_field": max_field_id(posting["fields"].combine_chunks()),
        "num_terms": 0, "num_occurrences": int(pc.sum(posting["cf"]).as_py() or 0),
        "num_docs": int(pc.sum(stats["df"]).as_py() or 0),
        "total_tokens": int(pc.sum(stats["cf"]).as_py() or 0),
        "min_doc_id": pc.min(stats["first_doc"]).as_py(),
        "max_doc_id": pc.max(stats["last_doc"]).as_py(),
    }
    if posting.num_rows:
        blob = os.path.join(PAYLOAD_DIR, stem + ".bin")
        cat = _catalog_rows(posting, blob, write_blob(os.path.join(seg_path, blob), posting))
        atomic_write(
            os.path.join(seg_path, "catalog", stem + ".parquet"),
            lambda tmp: pq.write_table(cat, tmp, row_group_size=65536),
        )
        row.update(num_terms=cat.num_rows, first_term=cat["term"][0].as_py(),
                   last_term=cat["term"][-1].as_py())
    if stats.num_rows:
        docs = decode_docstats_rows(stats).sort_by("doc_id")
        atomic_write(
            os.path.join(seg_path, "docs", stem + ".parquet"),
            lambda tmp: pq.write_table(docs, tmp),
        )
    return pa.Table.from_pylist([row], schema=_PARTITION_SCHEMA)


def _catalog_rows(posting: pa.Table, blob: str, directory) -> pa.Table:
    """Catalog rows of term-sorted posting rows (no sentinel rows):
    :func:`aggregate_catalog` plus each term's payload address in the
    blob at relative path ``blob``, whose ``directory`` (one record per
    term, in row order) :func:`~..state.payloads.write_blob` returned."""
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


def read_postings_dataset(index_dir: str, segments: list[str]) -> ray.data.Dataset:
    """Whole posting rows (the in-memory run schema, no doc-stats
    sentinel rows) of the given segments — the Ray read for compaction
    and the dump.  A segment's rows come from its catalog files and the
    blobs they address (:func:`~..state.payloads.read_blob_rows`); a
    segment written before blobs is read from its inline-payload
    postings parquet files instead, once, by the compaction that
    migrates it.

    A read task takes whole files, grouped to about
    ``target_min_block_size`` bytes each (the rule
    ``ray.data.read_parquet`` sizes its blocks by), so a shuffle after
    it runs as many partitions as a parquet read of those bytes would
    (one task per file cost the ingest workload's compaction 1.6-1.8 s
    of CPU against 0.9-1.2 s, 1 CPU)."""
    from ..state.payloads import PAYLOAD_DIR, predates_blobs

    items, size = [], 0
    for s in segments:
        seg_path = segment_dir(index_dir, s)
        inline = predates_blobs(_catalog_columns(index_dir, s))
        files = _parquet_files(os.path.join(seg_path, "postings" if inline else "catalog"))
        items.extend({"path": f, "seg": seg_path, "inline": inline} for f in files)
        if not inline:
            files = files + _parquet_files(os.path.join(seg_path, PAYLOAD_DIR), "*.bin")
        size += sum(os.path.getsize(f) for f in files)
    n = max(1, min(len(items), size // ray.data.DataContext.get_current().target_min_block_size))
    return ray.data.from_items(items, override_num_blocks=n).map_batches(
        _read_postings_batch, batch_format="pyarrow", batch_size=None
    )


def _read_postings_batch(batch: pa.Table) -> pa.Table:
    import pyarrow.parquet as pq

    from ..state.payloads import read_blob_rows

    out = [POSTINGS_SCHEMA.empty_table()]
    for path, seg_path, inline in zip(*(batch[c].to_pylist() for c in ("path", "seg", "inline"))):
        t = pq.read_table(path)
        out.append(_inline_rows(t) if inline else read_blob_rows(t, seg_path))
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


def _write_postings(runs: ray.data.Dataset, seg_path: str, block_cf: int) -> tuple[int, dict]:
    """Shuffle + merge ``runs`` and write ``<seg>/payloads``,
    ``<seg>/catalog`` and ``<seg>/docs``: the task that merges a sort
    partition also commits it (:func:`write_postings_partition`), so a
    partition becomes at most one payload blob, one catalog file and
    one docs file.  Returns the largest field id written (0 for no
    postings) and the segment manifest's counters over the partition
    rows: sums, and the doc id range.

    Sort partitions hold disjoint term ranges, so each term lies in
    exactly one partition (checked here on the ranges the tasks
    return), and the catalog files together are the term-sorted
    catalog."""
    kw = {"block_cf": block_cf, "seg_path": seg_path}
    parts = (
        runs.sort("term")
        .map_batches(_merge_and_write, fn_kwargs=kw, batch_format="pyarrow", batch_size=None)
        .take_all()
    )
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
    for f in _parquet_files(dir_path):
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
    [[key_min, key_max, n_rows], ...] | None}.  One footer read per
    file HERE, at build time, so every cold searcher actor afterwards
    reads ONE manifest JSON instead of O(files) footers.  ``row_groups``
    is None when any group lacks key statistics — the searcher then
    falls back to that file's footer."""
    import pyarrow.parquet as pq

    out: dict = {}
    for f in _parquet_files(dir_path):
        md = pq.ParquetFile(f).metadata
        groups: "list | None" = []
        for rg in range(md.num_row_groups):
            rgm = md.row_group(rg)
            st = rgm.column(0).statistics
            if st is None or not st.has_min_max:
                groups = None
                break
            groups.append([st.min, st.max, rgm.num_rows])
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
        empty = np.empty(0, dtype=np.int64)
        os.makedirs(cat_dir, exist_ok=True)
        pq.write_table(
            _catalog_rows(POSTINGS_SCHEMA.empty_table(), "", (empty,) * 4),
            os.path.join(cat_dir, "part-0.parquet"),
        )
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


class DocStatsStage:
    """Per-doc stats batch stage: doc_len (token count) + sha256(content).

    The sha256 column is the per-row invariant the baseline requires
    (BASELINE.json ``input_hint``): it must equal a recomputation from
    the original input table.  With ``text_cols`` (compound documents)
    doc_len sums the per-field counts and sha256 hashes the
    '\x1f'-joined fields — the SAME semantics as the fused invert
    sentinel (``InvertStage._docstats_table``), so docs_meta and docs
    agree; a prior version always read ``text_col``, which crashed (or
    silently hashed the wrong column) on multi-field builds.
    """

    def __init__(
        self,
        text_col: str,
        meta_cols: tuple[str, ...] = (),
        text_cols: "list[str] | None" = None,
    ):
        from ..stages.invert import _warm_heap

        self.text_col = text_col
        self.meta_cols = meta_cols
        self.text_cols = list(text_cols) if text_cols else None
        _warm_heap()

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..stages.invert import canonical_doc_texts

        texts = canonical_doc_texts(batch, self.text_col, self.text_cols)
        if self.text_cols:
            lens = sum(
                (np.asarray(token_counts(batch[c]), dtype=np.int64) for c in self.text_cols),
                np.zeros(batch.num_rows, dtype=np.int64),
            )
        else:
            lens = token_counts(batch[self.text_col])
        out = {
            "doc_id": batch["doc_id"],
            "doc_len": pa.array(np.asarray(lens, dtype=np.int64), type=pa.int64()),
            "sha256": pa.array(sha256_hex(texts), type=pa.string()),
        }
        for c in self.meta_cols:
            out[c] = batch[c]
        return pa.table(out)


def _doc_stats_batch_fn(
    batch: pa.Table, *, text_col: str, meta_cols: tuple, text_cols=None
) -> pa.Table:
    """Task-pool entry for :class:`DocStatsStage` — construction is
    config-only, so tasks beat an actor pool (see
    stages/invert.py:invert_batch_fn)."""
    return DocStatsStage(text_col, meta_cols, text_cols)(batch)


def _forward_file_batch_fn(batch: pa.Table, *, text_col: str, text_cols):
    """Task-pool entry for ForwardFileStage (generator) — same
    task-over-actor rationale as invert_batch_fn."""
    from ..stages.forward import ForwardFileStage

    yield from ForwardFileStage(text_col=text_col, text_cols=text_cols)(batch)


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

    # Task sizing only (stages run as task pools; Ray reuses worker
    # processes, so heap warmup amortizes without actors): target ≥4
    # file bundles per CPU for balance, uncapped — the old min(·, 32)
    # was an actor-pool-width cap and under-split on wider clusters.
    n_cpus = int(ray.cluster_resources().get("CPU", 8))
    pool = max(2, n_cpus)

    ds = None
    runs = None
    input_lineage = None
    if isinstance(source, str):
        cols = sorted({*(text_cols or [text_col]), *(meta_cols or ()), *([doc_id_col] if doc_id_col else []), *(id_cols or [])})
        if doc_id_col is None and id_cols is None:
            # positional deterministic ids straight from the parquet
            # layout: fused read+invert, one task per file, no shuffle
            # before the term sort
            from ..sources.corpus import corpus_file_items

            items, n_files = corpus_file_items(source, start_id=meta.next_doc_id)
            # (the file list already lives on the driver — from_items —
            # so this gather adds nothing; the CAP bounds what the
            # manifest persists)
            input_lineage = cap_lineage(
                [r["file"] for r in items.take_all()], lineage_budget
            )
            runs = items.map_batches(
                read_invert_batches_fn,
                fn_kwargs=dict(
                    text_col=text_col, text_cols=text_cols, columns=cols, block_cf=block_cf,
                ),
                batch_format="pyarrow",
                # bundle several file items per task (file items are
                # 1-row blocks, so batch_size counts FILES): each task
                # groups its small files into chunk_rows-doc invert
                # calls — fewer, larger runs into the term shuffle —
                # while keeping ≥4 tasks per worker for balance.
                # TASK pool, not an actor pool: stage construction is
                # config-only, actor launch/ramp was pure critical-path
                # overhead (interleaved A/B: ~2× wall on a 60k-doc
                # build vs tasks; the earlier fixed→autoscaling pool
                # fix measured 37→29 s — tasks remove the remainder),
                # and tasks can never starve the downstream AllToAll
                # term sort (see functions/similarity.py)
                batch_size=max(1, n_files // (pool * 4)),
            )
        else:
            src = ray.data.read_parquet(source, columns=cols)
            ds = normalize_corpus(src, text_col, doc_id_col=doc_id_col, id_cols=id_cols, start_id=meta.next_doc_id)
    else:
        ds = normalize_corpus(source, text_col, doc_id_col=doc_id_col, id_cols=id_cols, start_id=meta.next_doc_id)

    if meta_cols:
        # metadata projection pass (only when extra doc columns are
        # requested — the common path fuses doc stats into the invert).
        # STREAMING: no corpus materialize — the invert below simply
        # re-executes the (lazy, deterministic) normalize graph rather
        # than pinning the whole corpus in the object store; ids are
        # reproducible across executions (doc_id_col passes through,
        # assign_doc_ids is rank-of-unique-key and materializes only
        # its own keyed intermediate once).  On the positional fast
        # path (ds is None) the pass reads the corpus with the SAME
        # positional ids — meta_cols used to be silently dropped there.
        if ds is not None:
            meta_src = ds
        else:
            from ..sources.corpus import read_corpus_with_ids

            meta_src = read_corpus_with_ids(
                source, columns=cols, start_id=meta.next_doc_id
            )
        docs_ds = meta_src.map_batches(
            _doc_stats_batch_fn,
            fn_kwargs=dict(
                text_col=text_col, meta_cols=meta_cols, text_cols=text_cols
            ),
            batch_format="pyarrow",
            batch_size=batch_size,
        )
        docs_ds.write_parquet(os.path.join(seg_path, "docs_meta"))

    # --- single corpus pass: tokenize → local invert → fused doc
    # stats sentinel rows → term shuffle → merge → write (blobs,
    # catalog, docs) ---
    if runs is None:
        runs = ds.map_batches(
            invert_batch_fn,
            fn_kwargs=dict(
                text_col=text_col, text_cols=text_cols, doc_id_col="doc_id",
                block_cf=block_cf, emit_docstats=True,
            ),
            batch_format="pyarrow",
            batch_size=batch_size,
        )
    _max_field, counters = _write_postings(runs, seg_path, block_cf)

    # --- optional forward store: per-doc token char spans, so highlight
    # at query time slices text directly instead of re-tokenizing
    # (the reference's persisted-positions model, PersistentBuilder.cs)
    forward_ranges: list = []
    if store_forward:
        from ..stages.forward import forward_batch

        fwd_dir = os.path.join(seg_path, "forward")
        if ds is None:
            from ..sources.corpus import corpus_file_items

            f_items, _ = corpus_file_items(source, start_id=meta.next_doc_id)
            fwd = f_items.map_batches(
                _forward_file_batch_fn,
                fn_kwargs={"text_col": text_col, "text_cols": text_cols},
                batch_format="pyarrow",
                batch_size=1,
            )
        else:
            # sort: custom doc_id_col batches can arrive in any order,
            # and the forward range catalog's bounded walk-left assumes
            # sorted near-disjoint per-file doc ranges (an unsorted
            # write made stored docs unreachable)
            fwd = ds.map_batches(
                lambda b: forward_batch(b, text_col, text_cols), batch_format="pyarrow",
                batch_size=batch_size,
            ).sort("doc_id")
        fwd.write_parquet(fwd_dir, row_group_size=2048)
        forward_ranges = _scan_doc_ranges(fwd_dir, seg_path)

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
    # num_fields=0 means a legacy index of UNKNOWN field count — an
    # incremental session must keep it unknown (the old segments may be
    # multi-field), not overwrite it with this session's count.
    if meta.num_fields:
        meta.num_fields = max(meta.num_fields, len(text_cols) if text_cols else 1)
    meta.next_doc_id = max(meta.next_doc_id, manifest.max_doc_id + 1)
    save_meta(index_dir, meta)
    return meta
