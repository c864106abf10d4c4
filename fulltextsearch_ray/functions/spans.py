"""Exact duplicated-substring span detection and removal.

The token-k-gram span dedup used by large-scale training-data
pipelines (Lee et al. 2021, "Deduplicating Training Data Makes
Language Models Better"): any length-``gram_len`` token window whose
corpus-wide occurrence count reaches ``min_count`` marks its token
range as duplicated; overlapping/adjacent marked windows merge into
maximal spans per document.  Lee et al. build suffix arrays; at Ray
scale the equivalent is hash-first — group windows by a 64-bit md5
prefix (``common.md5_u64_batch``, bit-identical to the DuckDB oracle's
``('0x' || substr(md5(g),1,16))::UBIGINT``, so the oracle mirrors the
grouping EXACTLY, collisions included) and count with per-batch
partial counts summed by one hash-partitioned Arrow reduce.

Scale shape
-----------
* Pass 1 (count): per-batch window hashing + per-batch partial counts
  (combiner) -> ONE range shuffle on ``h`` whose
  task sums its partition with one Arrow ``group_by`` and keeps the
  hashes reaching ``min_count`` (``common.partitioned_sum``) -> the
  duplicated-hash set.  Python work is O(partitions), not one Ray
  reduce per distinct window; shuffle volume is bounded by distinct
  windows per batch, never total window occurrences.
* Pass 2 (mark): while the duplicated-hash set fits the one size
  budget (``common.GATHER_BYTES``) it joins map-side
  (``common.broadcast_apply``): every batch marks its windows with one
  ``searchsorted`` against the sorted set — no second shuffle, and no
  Ray stage at all when the documents fit the budget too.  Past the
  budget the mark becomes a hash-partitioned semi-join (one
  ``common.partition_apply`` of windows and dup-hashes on ``h``)
  followed by a doc-partitioned span merge — neither side ever touches
  the driver.
* ``cut_dup_spans`` on the map-side join is ONE fused pass (mark +
  window-coverage + Arrow list rebuild per batch — no span table, no
  shuffle; coverage by marked windows equals coverage by merged
  spans).  Past the budget documents co-group with their spans by
  ``doc_id % P`` and each rebuild task holds one partition, never the
  corpus.

Everything is vectorized: window construction is the same shifted
Arrow ``binary_join_element_wise`` as ``dedup.shingle_batch``, span
merging is one boolean-diff pass over (doc, pos)-sorted marks, and
coverage for the cut is a difference-array prefix sum over the token
tape.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..tokenizer import flat_tokens
from .common import (
    broadcast_apply,
    default_partitions,
    isin_sorted,
    list_array_auto,
    md5_u64_batch,
    partition_apply,
    partitioned_sum,
    require_unique_ids,
    sum_partial,
)

_DUP_SCHEMA = pa.schema([("h", pa.int64())])

_SPANS_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("start_tok", pa.int64()),
        ("end_tok", pa.int64()),
        ("n_grams", pa.int64()),
    ]
)


def _grams_full(texts: "pa.Array | pa.ChunkedArray", gram_len: int, with_pos: bool = True):
    """(hash, window doc_index, window pos, tokens, token doc_index,
    per-doc token counts) for every length-``gram_len`` token window of
    a batch; docs with fewer tokens emit no windows (matching the
    oracle's ``len >= L`` filter).  Windows come out doc-contiguous
    with ascending positions.  ``with_pos=False`` skips the window
    doc-index/position bookkeeping (gparent/pos return empty) — the
    corpus-wide COUNT pass only needs the hashes and runs over every
    batch of the corpus."""
    if gram_len < 1:
        raise ValueError(f"gram_len must be >= 1 (got {gram_len})")
    toks, parent, counts = flat_tokens(texts)
    T = len(toks)
    empty = (np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.int64))
    if T < gram_len:
        return (*empty, toks, parent, counts)
    cols = [toks.slice(i, T - gram_len + 1) for i in range(gram_len)]
    joined = pc.binary_join_element_wise(*cols, " ")
    inside = parent[: T - gram_len + 1] == parent[gram_len - 1 :]
    if not inside.any():
        return (*empty, toks, parent, counts)
    grams = joined.filter(pa.array(inside))
    # int64 VIEW of the uint64 md5 prefix: Ray Data shuffles/groupbys
    # reject uint64 values past int64-max, and the reinterpret is a
    # bijection so grouping semantics (and the oracle mirror) are
    # unchanged.  The hash never appears in any output column.
    h = md5_u64_batch(grams).view(np.int64)
    if not with_pos:
        return h, empty[1], empty[2], toks, parent, counts
    idx = np.flatnonzero(inside)
    gparent = parent[idx]
    starts = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    pos = idx - starts[gparent]
    return h, gparent, pos, toks, parent, counts


def grams_with_pos(
    texts: "pa.Array | pa.ChunkedArray", gram_len: int
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
    """(hash, doc_index, pos, per-doc token counts) — see
    :func:`_grams_full`."""
    h, gparent, pos, _, _, counts = _grams_full(texts, gram_len)
    return h, gparent, pos, counts


def spans_from_marks(mdoc: np.ndarray, mpos: np.ndarray, gram_len: int) -> pa.Table:
    """Merge (doc, pos)-SORTED marked window starts into maximal spans:
    consecutive marks in one doc merge while the gap is <= gram_len
    (overlap or adjacency of the covered token ranges)."""
    n = len(mdoc)
    if not n:
        return _SPANS_SCHEMA.empty_table()
    brk = np.ones(n, dtype=bool)
    brk[1:] = (mdoc[1:] != mdoc[:-1]) | ((mpos[1:] - mpos[:-1]) > gram_len)
    starts = np.flatnonzero(brk)
    last = np.r_[starts[1:], n] - 1
    return pa.table(
        {
            "doc_id": pa.array(mdoc[starts].astype(np.int64)),
            "start_tok": pa.array(mpos[starts].astype(np.int64)),
            "end_tok": pa.array((mpos[last] + gram_len).astype(np.int64)),
            "n_grams": pa.array((last - starts + 1).astype(np.int64)),
        }
    )


def _dup_hash_dataset(
    ds: ray.data.Dataset, text_col: str, gram_len: int, min_count: int
) -> ray.data.Dataset:
    """Single-column (``h: int64``) dataset of window hashes with
    corpus-wide occurrence count >= min_count.  Each batch counts its
    distinct windows (combiner); one
    :func:`common.partitioned_sum` then sums the partial counts with one
    Arrow group_by per partition and keeps the duplicated hashes in the
    same task — no Ray reduce per distinct hash."""

    def partial(b: pa.Table) -> pa.Table:
        h = _grams_full(b[text_col], gram_len, with_pos=False)[0]
        uh, cnt = np.unique(h, return_counts=True)
        return sum_partial("h", pa.array(uh, pa.int64()), "cnt", cnt, uh)

    def keep(sums: pa.Table) -> pa.Table:
        return sums.filter(pc.greater_equal(sums["cnt"], min_count)).select(["h"])

    partials = ds.select_columns([text_col]).map_batches(partial, batch_format="pyarrow")
    return partitioned_sum(partials, _DUP_SCHEMA.field("h"), "cnt", finish=keep)


def _make_mark_fn(gram_len: int, text_col: str, id_col: str):
    """Map-side mark: ``mark(batch, dup_sorted)`` marks the batch's
    windows with one searchsorted and merges spans locally (a doc's
    windows are always whole inside its batch row)."""

    def mark(batch: pa.Table, dup: np.ndarray) -> pa.Table:
        ids = np.asarray(batch[id_col].to_numpy(zero_copy_only=False), dtype=np.int64)
        require_unique_ids(ids, "dup_spans")
        h, gparent, pos, _ = grams_with_pos(batch[text_col], gram_len)
        marked = isin_sorted(dup, h)
        return spans_from_marks(ids[gparent[marked]], pos[marked], gram_len)

    return mark


_CUT_SCHEMA = pa.schema(
    [("doc_id", pa.int64()), ("text_cut", pa.string()), ("n_removed", pa.int64())]
)


def _make_cut_fn(gram_len: int, text_col: str, id_col: str):
    """Fused map-side cut: ``cut(batch, dup_sorted)`` runs mark +
    window-coverage + text rebuild in one batch pass.  Coverage by raw
    marked windows equals coverage by merged maximal spans (merging only
    joins overlapping/adjacent ranges), so the span table is never
    built."""

    def cut(batch: pa.Table, dup: np.ndarray) -> pa.Table:
        h, gparent, pos, toks, parent, counts = _grams_full(batch[text_col], gram_len)
        ids = np.asarray(batch[id_col].to_numpy(zero_copy_only=False), dtype=np.int64)
        require_unique_ids(ids, "cut_dup_spans")
        marked = isin_sorted(dup, h)
        T = len(toks)
        starts = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=starts[1:])
        diff = np.zeros(T + 1, dtype=np.int64)
        if marked.any():
            base = starts[gparent[marked]]
            mp = pos[marked]
            np.add.at(diff, base + mp, 1)
            np.add.at(diff, base + mp + gram_len, -1)  # windows never straddle docs
        keep = np.cumsum(diff[:T]) == 0
        kept_counts = (
            np.bincount(parent[keep], minlength=len(counts)).astype(np.int64)
            if T
            else np.zeros(len(counts), np.int64)
        )
        offsets = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(kept_counts, out=offsets[1:])
        kept_toks = toks.filter(pa.array(keep)) if T else toks
        if isinstance(kept_toks, pa.ChunkedArray):
            kept_toks = kept_toks.combine_chunks()
        kept_list = list_array_auto(offsets, kept_toks)
        return pa.table(
            {
                "doc_id": pa.array(ids),
                "text_cut": pc.binary_join(kept_list, " "),
                "n_removed": pa.array(counts - kept_counts),
            }
        )

    return cut


def dup_spans(
    ds: ray.data.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    gram_len: int = 4,
    min_count: int = 2,
    num_partitions: "int | None" = None,
) -> ray.data.Dataset:
    """Maximal duplicated token spans per document:
    (doc_id, start_tok, end_tok, n_grams), token positions 0-based,
    ``end_tok`` exclusive.  See the module docstring for the two-pass
    scale shape."""
    dup = _dup_hash_dataset(ds, text_col, gram_len, min_count).materialize()
    spans = broadcast_apply(ds, dup, "h", _make_mark_fn(gram_len, text_col, id_col), _SPANS_SCHEMA)
    if spans is not None:
        return spans
    return _dup_spans_distributed(ds, dup, text_col, id_col, gram_len, num_partitions)


_MARK_SCHEMA = pa.schema([("doc_id", pa.int64()), ("pos", pa.int64())])


def _dup_spans_distributed(
    ds: ray.data.Dataset,
    dup: ray.data.Dataset,
    text_col: str,
    id_col: str,
    gram_len: int,
    num_partitions: "int | None",
) -> ray.data.Dataset:
    # distributed mark: hash-partitioned semi-join of window occurrences
    # against the duplicated-hash set, then doc-partitioned span merge.
    P = num_partitions or default_partitions()
    win_schema = pa.schema([("h", pa.int64())] + list(_MARK_SCHEMA))

    def emit_windows(b: pa.Table) -> pa.Table:
        ids = np.asarray(b[id_col].to_numpy(zero_copy_only=False), dtype=np.int64)
        require_unique_ids(ids, "dup_spans")
        h, gparent, pos, _ = grams_with_pos(b[text_col], gram_len)
        if not len(h):
            return win_schema.empty_table()
        return pa.table(
            {"h": pa.array(h, pa.int64()), "doc_id": pa.array(ids[gparent]), "pos": pa.array(pos)}
        )

    def semi(wins: pa.Table, dups: pa.Table) -> pa.Table:
        dup_set = np.unique(np.asarray(dups["h"].to_numpy(zero_copy_only=False), dtype=np.int64))
        wh = np.asarray(wins["h"].to_numpy(zero_copy_only=False), dtype=np.int64)
        return wins.filter(pa.array(isin_sorted(dup_set, wh)))

    windows = ds.select_columns([id_col, text_col]).map_batches(emit_windows, batch_format="pyarrow")
    marks = partition_apply([(windows, "h", win_schema), (dup, "h", _DUP_SCHEMA)], P, semi, _MARK_SCHEMA)

    def merge_group(group: pa.Table) -> pa.Table:
        docs = np.asarray(group["doc_id"].to_numpy(zero_copy_only=False), dtype=np.int64)
        pos = np.asarray(group["pos"].to_numpy(zero_copy_only=False), dtype=np.int64)
        order = np.lexsort((pos, docs))
        docs, pos = docs[order], pos[order]
        # identical-content duplicate docs across batches collide on
        # (doc, pos) here — the cross-batch half of the uniqueness
        # contract (the per-batch half is checked at emit_windows)
        require_unique_ids(docs, "dup_spans", within=pos)
        return spans_from_marks(docs, pos, gram_len)

    return partition_apply([(marks, "doc_id", _MARK_SCHEMA)], P, merge_group, _SPANS_SCHEMA)


def cut_dup_spans(
    ds: ray.data.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    gram_len: int = 4,
    min_count: int = 2,
    num_partitions: "int | None" = None,
) -> ray.data.Dataset:
    """Remove every duplicated span from every document (the
    aggressive variant: ALL occurrences go, which keeps the semantics
    join-free and exactly SQL-mirrorable).  Output
    (doc_id, text_cut, n_removed) where ``text_cut`` is the kept
    tokens space-joined in order (the tokenizer's lowercased
    normalization, like every text op in this package) and
    ``n_removed`` counts dropped tokens.

    While the duplicated-hash set fits ``common.GATHER_BYTES`` the whole
    cut is ONE fused map-side pass (mark + coverage + rebuild per batch
    — no span table, no shuffle: coverage by marked windows equals
    coverage by merged spans).  Past the budget, documents co-group
    with their spans by ``doc_id % P`` — each rebuild task holds one
    partition, never the corpus.

    ``id_col`` values must be UNIQUE: the distributed rebuild resolves
    spans to docs by id (duplicates would attach every span to only the
    first matching row; its guarded lookup raises rather than silently
    diverging from the map-side path, which checks each batch)."""
    dup = _dup_hash_dataset(ds, text_col, gram_len, min_count).materialize()
    cut = broadcast_apply(ds, dup, "h", _make_cut_fn(gram_len, text_col, id_col), _CUT_SCHEMA)
    if cut is not None:
        return cut
    spans = _dup_spans_distributed(ds, dup, text_col, id_col, gram_len, num_partitions)
    doc_schema = pa.schema([(id_col, pa.int64()), (text_col, pa.string())])

    def rebuild(docs: pa.Table, spns: pa.Table) -> pa.Table:
        ids = np.asarray(docs[id_col].to_numpy(zero_copy_only=False), dtype=np.int64)
        toks, parent, counts = flat_tokens(docs[text_col])
        T = len(toks)
        starts = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=starts[1:])
        # coverage over the partition's token tape via difference array
        diff = np.zeros(T + 1, dtype=np.int64)
        if spns.num_rows:
            sid = np.asarray(spns["doc_id"].to_numpy(zero_copy_only=False), dtype=np.int64)
            s0 = np.asarray(spns["start_tok"].to_numpy(zero_copy_only=False), dtype=np.int64)
            s1 = np.asarray(spns["end_tok"].to_numpy(zero_copy_only=False), dtype=np.int64)
            id_order = np.argsort(ids)
            id_sorted = ids[id_order]
            # guarded lookup: a span whose doc is absent from this
            # partition (corrupt partitioning) or a duplicated doc_id
            # (spans resolve to only the FIRST matching row — see the
            # uniqueness contract in cut_dup_spans) must fail loudly
            # instead of raising an opaque IndexError / silently
            # cutting a neighboring doc's coverage
            hit = np.searchsorted(id_sorted, sid)
            if len(id_sorted) == 0:
                raise ValueError("cut_dup_spans: partition has spans but no docs")
            require_unique_ids(id_sorted, "cut_dup_spans")
            hit = np.minimum(hit, len(id_sorted) - 1)
            if not (id_sorted[hit] == sid).all():
                missing = sid[id_sorted[hit] != sid][:5]
                raise ValueError(
                    f"cut_dup_spans: span docs absent from their partition: {missing.tolist()}"
                )
            didx = id_order[hit]
            base = starts[didx]
            np.add.at(diff, base + s0, 1)
            np.add.at(diff, base + np.minimum(s1, counts[didx]), -1)
        covered = np.cumsum(diff[:T]) > 0
        keep = ~covered
        kept_counts = np.bincount(parent[keep], minlength=len(counts)).astype(np.int64)
        offsets = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(kept_counts, out=offsets[1:])
        kept_toks = toks.filter(pa.array(keep))
        if isinstance(kept_toks, pa.ChunkedArray):
            kept_toks = kept_toks.combine_chunks()
        kept_list = list_array_auto(offsets, kept_toks)
        text_cut = pc.binary_join(kept_list, " ")
        return pa.table(
            {
                "doc_id": pa.array(ids),
                "text_cut": text_cut,
                "n_removed": pa.array(counts - kept_counts),
            }
        )

    return partition_apply(
        [
            (ds, id_col, doc_schema),
            (spans, "doc_id", _SPANS_SCHEMA),
        ],
        num_partitions or default_partitions(),
        rebuild,
        _CUT_SCHEMA,
    )
