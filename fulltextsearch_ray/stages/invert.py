"""map_batches stages for inverted-index construction.

The build shape (SURVEY.md §3.4):

    read_parquet → map_batches(InvertStage)        # tokenize + LOCAL invert
      → term_partitions(merge_runs_batch)           # THE shuffle, key=term
      → write_postings_partition (payload blob + catalog + docs per partition)

``InvertStage`` is the crucial scale lever: instead of exploding one
row per occurrence into the shuffle (10×+ the corpus size), each input
batch is inverted LOCALLY into one encoded posting run per distinct
term — the partial/combiner pattern.  A stop-word term then contributes
one compressed run per batch (not one row per occurrence), which also
bounds the skew a single sort key can see: the merge of a hot term
handles ~#batches compressed runs, not raw occurrences.

The invert and the merge of overlapping runs write blocks through ONE
encoder, :func:`encode_posting_rows` (delta + varint per block, the
reference's ``PostingListVarIntDeltaWriter``); the merge of doc-disjoint
runs splices the bytes that encoder wrote (:func:`merge_runs_batch`).

This replaces the reference's single-threaded in-RAM
``SortedDictionary<string, List<Occurrence>>`` accumulation
(``FullTextIndexBuilder.cs:11,104-140``) with per-batch bounded state.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..codecs import (
    _expand_occurrences,
    restart_prefix_sum,
    varint_decode,
    varint_encode_offsets,
    varint_widths,
)
from ..state.index import POSTINGS_SCHEMA
from ..tokenizer import DEFAULT_FIELD_ID, tokenize_batch

# Target occurrences per encoded posting block. Bounds both the decode
# unit at query time and row size in the shuffle.
DEFAULT_BLOCK_CF = 1 << 16


_HEAP_WARMED = False


def _warm_heap(mb: int = 0) -> None:
    """Keep worker heap pages resident (and optionally pre-fault them).

    This environment (like many virtualized hosts) provisions memory
    lazily: the FIRST touch of fresh pages can be 10-40x slower than
    warm pages, making per-task numpy time wildly bimodal (observed
    1.2s vs 16s on identical blocks).  Fix, applied once per worker
    process:

    * ``mallopt(M_MMAP_MAX=0)`` + huge ``M_TRIM_THRESHOLD`` so large
      numpy allocations come from the persistent brk heap instead of
      fresh (cold) mmaps that are unmapped on free — pages then fault
      once per WORKER instead of once per allocation;
    * ``mb > 0`` additionally pre-faults that many MiB up front
      (OPT-IN; the default callers rely on the mallopt half alone and
      let first-batch work fault the heap once).

    Paid once per worker PROCESS (module-global memo): Ray reuses task
    workers, so with task-pool stages the warmup amortizes exactly as
    it did under actors.  The settings are deliberately process-wide —
    every stage of this engine wants single-threaded Arrow kernels
    (parallelism comes from Ray) and a persistent brk heap, so
    "leaking" into a reused worker that later runs merge/sort/write
    tasks is the intended steady state, not contamination.
    """
    global _HEAP_WARMED
    if _HEAP_WARMED:
        return
    _HEAP_WARMED = True
    # Stage parallelism comes from Ray, not Arrow's internal pool:
    # without this every worker's Arrow kernels fan out over ALL host
    # cores, oversubscribing the box and silently inflating low-
    # parallelism benchmarks (Arrow's pool ignores ray num_cpus).
    pa.set_cpu_count(1)
    pa.set_io_thread_count(2)
    try:
        import ctypes

        libc = ctypes.CDLL("libc.so.6", use_errno=True)
        libc.mallopt(-4, 0)        # M_MMAP_MAX = 0
        libc.mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD = 1 GiB
    except OSError:  # non-glibc platform: warmup below still helps
        pass
    if mb > 0:
        buf = np.empty(mb * 1024 * 1024 // 8, dtype=np.int64)
        buf[::512] = 1  # touch every page
        del buf


def _binary_column(buf: np.ndarray, ends: np.ndarray, value_bounds: np.ndarray) -> pa.Array:
    """Zero-copy Arrow binary column: slice one global varint buffer
    into per-term payloads via an offsets buffer (no bytes copies)."""
    byte_ends = np.r_[np.int64(0), ends]
    if len(buf) >= (1 << 31):  # real exception: asserts vanish under -O
        raise ValueError("batch payload exceeds int32 binary offsets — lower batch_size")
    offsets = byte_ends[value_bounds].astype(np.int32)
    # py_buffer wraps the ndarrays via the buffer protocol (keeps them
    # alive, zero-copy) — .tobytes() here duplicated every encoded
    # payload on a memory-bandwidth-bound stage
    return pa.Array.from_buffers(
        pa.binary(), len(value_bounds) - 1,
        [None, pa.py_buffer(np.ascontiguousarray(offsets)),
         pa.py_buffer(np.ascontiguousarray(buf))],
    )


def _block_bounds(
    bounds: np.ndarray, doc_start: np.ndarray, entry_start: np.ndarray, block_cf: int
) -> np.ndarray:
    """Occurrence offsets of every posting block: each term's slice
    ``bounds[i]:bounds[i + 1]`` is cut greedily at ~``block_cf``
    occurrences, all terms at once — one loop step per block INDEX,
    never per term.

    A cut from block start ``s`` lands on the last doc start
    ≤ ``s + block_cf``, so a document never spans two blocks and
    per-block ``n_docs`` counts sum to the true per-term df in the
    catalog roll-up.  Fallbacks, in order, when a single doc / entry
    exceeds ``block_cf``: the last entry start (a multi-field doc
    splits, inflating that term's summed n_docs by one per extra
    block), then mid-entry at the cap.
    """
    lo, hi = bounds[:-1], bounds[1:]
    long = hi - lo > block_cf
    if not long.any():
        return bounds
    doc_starts = np.flatnonzero(doc_start)
    entry_starts = doc_starts if entry_start is doc_start else np.flatnonzero(entry_start)
    s, hi = lo[long], hi[long]
    cuts = [bounds]
    while len(s):
        # every term start is a doc start, so the last one ≤ cap (< hi)
        # lies inside the term
        cap = s + block_cf
        e = doc_starts[np.searchsorted(doc_starts, cap, side="right") - 1]
        stuck = e <= s
        if stuck.any():
            e[stuck] = entry_starts[np.searchsorted(entry_starts, cap[stuck], side="right") - 1]
            stuck = e <= s
            e[stuck] = cap[stuck]
        cuts.append(e)
        more = hi - e > block_cf
        s, hi = e[more], hi[more]
    return np.sort(np.concatenate(cuts))


def encode_posting_rows(
    terms_sorted: pa.Array,
    bounds: np.ndarray,
    occ_docs: np.ndarray,
    occ_fields: "np.ndarray | None",
    occ_tokens: np.ndarray,
    block_cf: int = DEFAULT_BLOCK_CF,
) -> pa.Table:
    """THE posting encoder: every term of a (term, doc, field,
    token)-ordered occurrence stream → posting block rows, in four
    global varint passes.

    ``bounds`` are the per-term occurrence offsets; ``occ_fields=None``
    means a single-field stream (``DEFAULT_FIELD_ID``).  Every row's
    ``bucket`` is 0 (a posting row).  Terms longer than ``block_cf`` are
    chunked by :func:`_block_bounds`; each block is then its own
    segment of the global passes — entry detection, delta resets at
    block/entry starts, per-block stats and the byte-slicing into
    per-block binary payloads are all numpy / Arrow-buffer operations.
    Rows come out in (term, block_id) order.
    """
    n = len(occ_docs)
    if n == 0:
        return POSTINGS_SCHEMA.empty_table()
    const_field = occ_fields is None  # single-field corpus fast path
    # doc start = (term, doc) changes; entry start = (term, doc, field)
    doc_start = np.empty(n, dtype=bool)
    doc_start[0] = True
    np.not_equal(occ_docs[1:], occ_docs[:-1], out=doc_start[1:])
    doc_start[bounds[1:-1]] = True
    if const_field:
        entry_start = doc_start
    else:
        entry_start = doc_start.copy()
        entry_start[1:] |= occ_fields[1:] != occ_fields[:-1]

    blk_bounds = _block_bounds(bounds, doc_start, entry_start, block_cf)
    B = len(blk_bounds) - 1
    if B == len(terms_sorted):
        blk_terms = terms_sorted
        block_id = np.zeros(B, dtype=np.int32)
    else:
        # a block opens a fresh entry (and counts its doc) even mid-entry
        doc_start[blk_bounds[1:-1]] = True
        entry_start[blk_bounds[1:-1]] = True
        blk_term = np.searchsorted(bounds, blk_bounds[:-1], side="right") - 1
        blk_terms = terms_sorted.take(pa.array(blk_term))
        first_blk = np.searchsorted(blk_bounds, bounds[:-1])
        block_id = (np.arange(B) - first_blk[blk_term]).astype(np.int32)

    entry_starts = np.flatnonzero(entry_start)
    e_docs = occ_docs[entry_starts]
    tfs = np.diff(np.r_[entry_starts, n]).astype(np.uint64)
    e_bounds = np.searchsorted(entry_starts, blk_bounds)

    # doc gaps reset at block starts (gap vs 0 == absolute)
    d_deltas = np.empty_like(e_docs)
    d_deltas[0] = e_docs[0]
    np.subtract(e_docs[1:], e_docs[:-1], out=d_deltas[1:])
    d_deltas[e_bounds[:-1]] = e_docs[e_bounds[:-1]]
    # token gaps reset at entry starts
    t_deltas = np.empty_like(occ_tokens)
    t_deltas[0] = occ_tokens[0]
    np.subtract(occ_tokens[1:], occ_tokens[:-1], out=t_deltas[1:])
    t_deltas[entry_starts] = occ_tokens[entry_starts]

    docs_b, docs_ends = varint_encode_offsets(d_deltas)
    if const_field and DEFAULT_FIELD_ID < 128:
        # constant field id ⇒ every entry encodes to one identical
        # varint byte; build the buffer directly, no uint64 array
        E = len(e_docs)
        fields_b = np.full(E, DEFAULT_FIELD_ID, dtype=np.uint8)
        fields_ends = np.arange(1, E + 1, dtype=np.int64)
    else:
        fields_b, fields_ends = varint_encode_offsets(occ_fields[entry_starts])
    tfs_b, tfs_ends = varint_encode_offsets(tfs)
    pos_b, pos_ends = varint_encode_offsets(t_deltas)

    df = np.diff(e_bounds)
    # distinct docs per block (single-field: every entry is a new doc)
    n_docs = df if const_field else np.add.reduceat(
        doc_start[entry_starts].astype(np.int64), e_bounds[:-1]
    )
    return pa.table(
        {
            # a large_string text column gives large_string terms
            "term": blk_terms.cast(pa.string()),
            "bucket": pa.array(np.zeros(B, dtype=np.int32)),
            "block_id": pa.array(block_id),
            "first_doc": pa.array(e_docs[e_bounds[:-1]], pa.uint64()),
            "last_doc": pa.array(e_docs[e_bounds[1:] - 1], pa.uint64()),
            "df": pa.array(df.astype(np.int64)),
            "cf": pa.array(np.diff(blk_bounds).astype(np.int64)),
            "max_tf": pa.array(np.maximum.reduceat(tfs, e_bounds[:-1]).astype(np.int64)),
            "n_docs": pa.array(n_docs.astype(np.int64)),
            "docs": _binary_column(docs_b, docs_ends, e_bounds),
            "fields": _binary_column(fields_b, fields_ends, e_bounds),
            "tfs": _binary_column(tfs_b, tfs_ends, e_bounds),
            "positions": _binary_column(pos_b, pos_ends, blk_bounds.astype(np.int64)),
        }
    )


DOCSTATS_TERM_PREFIX = "\x00docs:"  # '\x00' can never appear in a token


def encode_docstats_row(doc_ids: np.ndarray, doc_lens: np.ndarray, shas: list[str], num_occ: int) -> dict:
    """Pack one batch's per-doc stats as a sentinel posting row.

    Fusing doc stats into the invert pass halves the corpus passes
    (one tokenize instead of two) and drops a whole actor pool; the
    rows travel through the same shuffle (bucket = -1, term =
    '\\x00docs:<first_doc>' with the id zero-padded to 20 digits, so
    each batch stays its own group and key order is doc order) and the
    call that merges their partition writes them out as its docs file.
    """
    from ..codecs import varint_encode

    # ONE id sort aligns all three parallel payloads — a prior version
    # sorted docs/doc_lens but left the sha blob in batch-row order,
    # pairing each doc with a NEIGHBOR's sha256 whenever the batch's
    # ids arrived unsorted (assign_doc_ids rank path)
    order = np.argsort(doc_ids, kind="stable") if len(doc_ids) else np.empty(0, np.int64)
    sorted_ids = doc_ids[order]
    return {
        "term": f"{DOCSTATS_TERM_PREFIX}{int(sorted_ids[0]) if len(doc_ids) else 0:020d}",
        "bucket": -1,
        "block_id": 0,
        "first_doc": int(sorted_ids[0]) if len(doc_ids) else 0,
        "last_doc": int(sorted_ids[-1]) if len(doc_ids) else 0,
        "df": int(len(doc_ids)),
        "cf": int(num_occ),
        "max_tf": 0,
        "n_docs": int(len(doc_ids)),
        "docs": varint_encode(sorted_ids) if len(doc_ids) else b"",
        "fields": b"",
        "tfs": varint_encode(doc_lens[order]) if len(doc_ids) else b"",
        "positions": "".join(shas[int(i)] for i in order).encode("ascii"),
    }


def canonical_doc_texts(batch: pa.Table, text_col: str, text_cols) -> list[str]:
    """THE canonical per-doc text the sha256 invariant hashes: the
    '\\x1f'-join of ``text_cols`` (None → "") or the single
    ``text_col``.  The invert hashes it once per doc for both the docs
    sentinel and the ``docs_meta`` rows (:meth:`InvertStage._doc_tables`),
    so the two tables cannot disagree."""
    if text_cols:
        cols = [batch[c].to_pylist() for c in text_cols]
        return ["\x1f".join(v or "" for v in row) for row in zip(*cols)]
    return [t if t is not None else "" for t in batch[text_col].to_pylist()]


def decode_docstats_rows(tbl: pa.Table) -> pa.Table:
    """Sentinel rows → docs table (doc_id, doc_len, sha256)."""
    ids, lens, shas = [], [], []
    for i in range(tbl.num_rows):
        d = varint_decode(tbl["docs"][i].as_py())
        l = varint_decode(tbl["tfs"][i].as_py())
        blob = tbl["positions"][i].as_py().decode("ascii")
        ids.append(d)
        lens.append(l)
        shas.extend(blob[j : j + 64] for j in range(0, len(blob), 64))
    if not ids:
        return pa.table(
            {"doc_id": pa.array([], pa.uint64()), "doc_len": pa.array([], pa.int64()),
             "sha256": pa.array([], pa.string())}
        )
    return pa.table(
        {
            "doc_id": pa.array(np.concatenate(ids), pa.uint64()),
            "doc_len": pa.array(np.concatenate(lens).astype(np.int64)),
            "sha256": pa.array(shas, pa.string()),
        }
    )


class InvertStage:
    """Callable batch stage: (doc_id, text) batch → posting run rows
    plus one fused doc-stats sentinel row per batch (doc_len for BM25,
    sha256 invariant).

    Runs as a TASK pool via :func:`invert_batch_fn`.  Construction is
    config-only: the task entries warm the worker heap
    (:func:`_warm_heap`), so a stage the driver builds and calls itself
    leaves that process's Arrow threads and allocator as they were.

    ``num_buckets`` is accepted and ignored: the ``bucket`` column only
    tells posting rows (0) from sentinel rows (-1), and the traced
    ingest benchmark's replay still passes the argument.

    With ``seg_path``, each call also writes the batch's other
    doc-keyed tables under that segment, from the same read and
    tokenize: ``docs_meta/<stem>.parquet`` (doc_id, doc_len, sha256 and
    ``meta_cols``; only with ``meta_cols``) and ``forward/<stem>.parquet``
    (:func:`~.forward.forward_batch` spans; only with
    ``store_forward``).  The stem is the batch's first doc id,
    zero-padded as in the sentinel key, and the write is atomic, so a
    retried call overwrites its own files.
    """

    def __init__(
        self,
        text_col: str = "text",
        doc_id_col: str = "doc_id",
        num_buckets: int = 64,
        block_cf: int = DEFAULT_BLOCK_CF,
        field_id: int = DEFAULT_FIELD_ID,
        emit_docstats: bool = False,
        text_cols: "list[str] | None" = None,
        seg_path: "str | None" = None,
        meta_cols: tuple = (),
        store_forward: bool = False,
    ):
        # text_cols: compound documents — field ids 1..N assigned in
        # column order (the reference's AddCompound contract,
        # FullTextIndexBuilder.cs:57-62); overrides text_col.
        self.text_cols = list(text_cols) if text_cols else None
        self.text_col = text_col
        self.doc_id_col = doc_id_col
        self.block_cf = block_cf
        self.field_id = field_id
        self.emit_docstats = emit_docstats
        self.seg_path = seg_path
        self.meta_cols = tuple(meta_cols)
        self.store_forward = store_forward

    def _doc_tables(self, batch: pa.Table, doc_ids: np.ndarray, counts: np.ndarray):
        """The batch's doc-stats sentinel row (None without
        ``emit_docstats``), after writing its ``docs_meta`` and
        ``forward`` files (see the class docstring)."""
        import hashlib
        import os

        import pyarrow.parquet as pq

        from ..state.payloads import atomic_write
        from .forward import FORWARD_ROW_GROUP, forward_batch

        shas = None
        if self.emit_docstats or (self.seg_path and self.meta_cols):
            texts = canonical_doc_texts(batch, self.text_col, self.text_cols)
            shas = [hashlib.sha256(t.encode("utf-8")).hexdigest() for t in texts]
        if self.seg_path and batch.num_rows:
            stem = f"{int(doc_ids.min()):020d}.parquet"
            if self.meta_cols:
                meta = pa.table({
                    "doc_id": pa.array(doc_ids, pa.uint64()),
                    "doc_len": pa.array(counts, pa.int64()),
                    "sha256": pa.array(shas, pa.string()),
                    **{c: batch[c] for c in self.meta_cols},
                }).sort_by("doc_id")
                atomic_write(os.path.join(self.seg_path, "docs_meta", stem),
                             lambda tmp: pq.write_table(meta, tmp))
            if self.store_forward:
                fwd = forward_batch(batch, self.text_col, self.text_cols).sort_by("doc_id")
                atomic_write(os.path.join(self.seg_path, "forward", stem),
                             lambda tmp: pq.write_table(fwd, tmp, row_group_size=FORWARD_ROW_GROUP))
        if not self.emit_docstats:
            return None
        row = encode_docstats_row(doc_ids, counts, shas, int(counts.sum()))
        return pa.table(
            {k: pa.array([row[k]], type=POSTINGS_SCHEMA.field(k).type) for k in POSTINGS_SCHEMA.names}
        )

    def _tokenize_multi(self, batch: pa.Table, doc_ids: np.ndarray):
        """Compound documents: tokenize each field column, assign field
        ids 1..N in column order, lexsort to (doc, field, token)."""
        parts = []
        counts_total = np.zeros(batch.num_rows, dtype=np.int64)
        for fid, col in enumerate(self.text_cols, start=1):
            tok = tokenize_batch(batch[col])
            counts_total += tok.counts
            parts.append((fid, tok))
        terms = pa.concat_arrays(
            [t.terms.combine_chunks() if isinstance(t.terms, pa.ChunkedArray) else t.terms for _, t in parts]
        )
        occ_docs = np.concatenate([doc_ids[t.doc_index] for _, t in parts])
        occ_fields = np.concatenate(
            [np.full(len(t.token_ids), fid, dtype=np.uint64) for fid, t in parts]
        )
        occ_tokens = np.concatenate([t.token_ids for _, t in parts])
        order = np.lexsort((occ_tokens, occ_fields, occ_docs))
        return (
            terms.take(pa.array(order)),
            occ_docs[order], occ_fields[order], occ_tokens[order],
            counts_total,
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids = np.asarray(batch[self.doc_id_col].to_numpy(zero_copy_only=False), dtype=np.uint64)
        # duplicate ids within a batch (possible only from a user
        # doc_id_col — positional/rank assignment is unique by
        # construction) would MERGE two documents' occurrence streams
        # into one posting entry with non-monotonic token positions
        # (phrase/adjacency queries silently wrong) and emit two doc
        # rows inflating num_docs/avgdl — fail loudly instead.  Ids
        # duplicated ACROSS batches/sessions are the same contract
        # violation; they surface as doc-length lookup inconsistencies.
        if len(doc_ids) > 1 and np.unique(doc_ids).size != len(doc_ids):
            dup = np.sort(doc_ids)
            dup = np.unique(dup[1:][dup[1:] == dup[:-1]])[:5]
            raise ValueError(
                f"build_index: doc_id must be unique; duplicates in batch: {dup.tolist()}"
            )
        if self.text_cols:
            terms, occ_docs, occ_fields, occ_tokens, counts = self._tokenize_multi(batch, doc_ids)
            stats = self._doc_tables(batch, doc_ids, counts)
            if len(occ_docs) == 0:
                return stats if stats is not None else POSTINGS_SCHEMA.empty_table()
            return self._invert_sorted(terms, occ_docs, occ_fields, occ_tokens, stats)
        tok = tokenize_batch(batch[self.text_col])
        stats = self._doc_tables(batch, doc_ids, tok.counts)
        if len(tok.doc_index) == 0:
            return stats if stats is not None else POSTINGS_SCHEMA.empty_table()

        occ_docs = doc_ids[tok.doc_index]
        occ_tokens = tok.token_ids
        terms = tok.terms
        if len(doc_ids) > 1 and (doc_ids[1:] < doc_ids[:-1]).any():
            # _invert_sorted requires a (doc, token)-ordered occurrence
            # stream (it only stable-sorts by term); positional builds
            # satisfy this for free, but assign_doc_ids' rank ids and
            # user doc_id_col batches can arrive unsorted — without
            # this sort such a batch silently writes corrupt blocks
            # (row-order occurrence streams, wrong first/last_doc,
            # split df entries)
            order = np.lexsort((occ_tokens, occ_docs))
            occ_docs, occ_tokens = occ_docs[order], occ_tokens[order]
            terms = terms.take(pa.array(order))
        # single-field corpora skip the fields array entirely (the
        # constant is synthesized at encode time) — one less 8-byte
        # stream through a memory-bandwidth-bound stage
        const_field = self.field_id == DEFAULT_FIELD_ID
        occ_fields = (
            None if const_field else np.full(len(occ_tokens), self.field_id, dtype=np.uint64)
        )

        return self._invert_sorted(terms, occ_docs, occ_fields, occ_tokens, stats)

    def _invert_sorted(self, terms, occ_docs, occ_fields, occ_tokens, stats):
        """Local invert of a (doc, field, token)-ordered token stream:
        stable sort by term only — a stable term sort over an already
        (doc, field, token)-ordered stream yields full
        (term, doc, field, token) order without a 3-key lexsort.
        ``occ_fields is None`` signals a single-field stream.

        The vocabulary is ordered in C++ (``array_sort_indices`` on the
        dictionary: UTF-8 byte order is code-point order, which is
        Python ``str`` order), and the occurrences by a stable argsort
        of their term ranks — no Python strings.  Ranks are ``uint16``
        whenever the vocabulary fits, where numpy's stable sort is a
        radix sort."""
        dict_arr = terms.dictionary_encode()
        codes = np.asarray(dict_arr.indices.to_numpy(zero_copy_only=False))
        vocab_order = np.asarray(pc.array_sort_indices(dict_arr.dictionary))
        V = len(vocab_order)
        rank = np.empty(V, dtype=np.uint16 if V <= 1 << 16 else np.uint32)
        rank[vocab_order] = np.arange(V)
        keyed = rank[codes]  # one O(n) gather, reused below
        order = np.argsort(keyed, kind="stable")

        occ_docs = occ_docs[order]
        if occ_fields is not None:
            occ_fields = occ_fields[order]
        occ_tokens = occ_tokens[order]
        # term boundaries in the sorted occurrence stream
        counts = np.bincount(keyed[order], minlength=V)
        present = counts > 0
        bounds = np.zeros(int(present.sum()) + 1, dtype=np.int64)
        np.cumsum(counts[present], out=bounds[1:])
        terms_sorted = dict_arr.dictionary.take(pa.array(vocab_order[present]))
        rows = encode_posting_rows(
            terms_sorted, bounds, occ_docs, occ_fields, occ_tokens, self.block_cf,
        )
        if stats is not None:
            rows = pa.concat_tables([rows, stats]).combine_chunks()
        return rows


class ReadInvertStage:
    """Fused file-group stage: read parquet file items → positional doc
    ids → tokenize → local invert (+ doc-stats sentinels, and with
    ``seg_path`` the ``docs_meta`` and ``forward`` files of each invert
    call, see :class:`InvertStage`).

    Input batches are 1-row file items ``{file, offset}``; the build
    sets ``batch_size`` so several SMALL files bundle into one task.
    Consecutive small files accumulate up to ``chunk_rows`` docs and
    invert TOGETHER — one run per term per group instead of per file,
    which shrinks the term shuffle's row count (and the merge stage's
    segmented work) by the group factor.  Files larger than
    ``chunk_rows`` are processed in slices to bound working memory, as
    before.  Grouping is safe because file items arrive in sorted-path
    order with ascending doc-id offsets, so a group's occurrences stay
    doc-sorted.
    """

    def __init__(
        self,
        text_col: str,
        columns: list[str] | None = None,
        block_cf: int = DEFAULT_BLOCK_CF,
        chunk_rows: int = 8192,
        text_cols: list[str] | None = None,
        seg_path: str | None = None,
        meta_cols: tuple = (),
        store_forward: bool = False,
    ):
        self.inner = InvertStage(
            text_col=text_col, text_cols=text_cols, doc_id_col="doc_id",
            block_cf=block_cf, emit_docstats=True,
            seg_path=seg_path, meta_cols=meta_cols, store_forward=store_forward,
        )
        self.columns = columns
        self.chunk_rows = chunk_rows

    def __call__(self, batch: pa.Table):
        import pyarrow.parquet as pq

        pending: list[pa.Table] = []
        pending_rows = 0

        def flush():
            nonlocal pending, pending_rows
            if not pending:
                return None
            t = pa.concat_tables(pending) if len(pending) > 1 else pending[0]
            pending, pending_rows = [], 0
            return self.inner(t)

        for f, off in zip(batch["file"].to_pylist(), batch["offset"].to_pylist()):
            t = pq.read_table(f, columns=self.columns)
            ids = pa.array(np.arange(off, off + t.num_rows, dtype=np.uint64), pa.uint64())
            t = t.append_column("doc_id", ids)
            if t.num_rows >= self.chunk_rows:
                out = flush()
                if out is not None:
                    yield out
                for s in range(0, t.num_rows, self.chunk_rows):
                    yield self.inner(t.slice(s, self.chunk_rows))
            else:
                pending.append(t)
                pending_rows += t.num_rows
                if pending_rows >= self.chunk_rows:
                    yield flush()
        out = flush()
        if out is not None:
            yield out


def invert_batch_fn(batch: pa.Table, **kw) -> pa.Table:
    """Task-pool entry for :class:`InvertStage`.

    The entry warms the worker's heap once per PROCESS
    (:func:`_warm_heap`) and stage construction is config assignment,
    so a plain task pool beats an actor pool for the invert: no actor
    launch/ramp-up on the critical path (an interleaved A/B on a
    60k-doc build measured ~2× wall for the autoscaling actor pool vs
    tasks) and zero AllToAll-starvation risk (a CPU-reserving pool can
    stall the downstream term sort — see functions/similarity.py).  Ray
    reuses worker processes across tasks, so kernels and the warmed
    heap persist exactly as they would in an actor."""
    _warm_heap()
    return InvertStage(**kw)(batch)


def read_invert_batches_fn(batch: pa.Table, **kw):
    """Task-pool entry for :class:`ReadInvertStage` (generator) — see
    :func:`invert_batch_fn` for why tasks, not actors."""
    _warm_heap()
    yield from ReadInvertStage(**kw)(batch)


def _offsets_and_data(col: "pa.Array | pa.ChunkedArray") -> tuple[np.ndarray, np.ndarray]:
    """(value offsets, data bytes) of a null-free binary column: zero-copy
    views of its Arrow buffers, never a Python bytes-object loop."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    off = np.frombuffer(col.buffers()[1], dtype=np.int32)[col.offset : col.offset + len(col) + 1]
    return off, np.frombuffer(col.buffers()[2], dtype=np.uint8)


def _payload_bytes(col: "pa.Array | pa.ChunkedArray") -> np.ndarray:
    """Concatenated payload bytes of a (null-free) binary column in row
    order — a zero-copy view of the Arrow data buffer."""
    off, data = _offsets_and_data(col)
    return data[off[0] : off[-1]]


def decode_occurrences(rows: pa.Table) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (docs, fields, tokens) occurrence arrays of whole posting
    rows, in row order: ONE segmented varint decode per payload column
    over its Arrow bytes (doc gaps restart at block starts, token gaps
    at entry starts, :func:`~..codecs.restart_prefix_sum`).  The one
    bulk decoder of posting rows: the merge of overlapping runs and the
    conformance dump."""

    def values(c):
        return varint_decode(_payload_bytes(rows[c]))

    dfs = np.asarray(rows["df"].to_numpy(zero_copy_only=False), dtype=np.int64)
    return _expand_occurrences(
        restart_prefix_sum(values("docs"), dfs), values("fields"), values("tfs"), values("positions"),
    )


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Indices ``starts[i] .. starts[i] + lens[i] - 1`` of every range, concatenated."""
    before = np.cumsum(lens) - lens
    return np.repeat(starts - before, lens) + np.arange(int(lens.sum()))


def _splice_runs(sub: pa.Table, counts: np.ndarray) -> pa.Table:
    """One posting block per term from its strictly doc-disjoint runs,
    built from their bytes.  ``sub`` holds the runs in (term, first_doc,
    block_id) order, ``counts[i]`` runs for term i.

    ``fields``, ``tfs`` and ``positions`` are the runs' payloads
    concatenated (a run opens an entry, so its token gaps already
    restart): new offsets over the same data buffer.  ``docs`` is the
    payloads concatenated too, except that each later run's first
    varint, the absolute id ``first_doc[i]``, becomes the gap
    ``first_doc[i] - last_doc[i - 1]`` — the only varints decoded and
    encoded.  The gap is never wider than the id, so it is written into
    the tail of the id's bytes and the leading bytes dropped.  Block
    stats sum (df, cf, n_docs) or max (max_tf) over the runs."""
    n = sub.num_rows
    starts = np.cumsum(counts) - counts
    bounds = np.r_[starts, n]

    def num(c):
        return np.asarray(sub[c].to_numpy(zero_copy_only=False))

    first, last = num("first_doc").astype(np.uint64), num("last_doc").astype(np.uint64)
    later = np.ones(n, dtype=bool)
    later[starts] = False
    later = np.flatnonzero(later)

    off, data = _offsets_and_data(sub["docs"])
    base = (off - off[0]).astype(np.int64)
    buf = data[off[0] : off[-1]].copy()
    ids = first[later]
    width = varint_widths(ids)
    got = varint_decode(buf[_ranges(base[later], width)])
    if len(got) != len(later) or not np.array_equal(got, ids):
        raise ValueError("merge: a run's docs payload does not open with its first_doc")
    gap_b, gap_ends = varint_encode_offsets(ids - last[later - 1])
    shift = width - np.diff(np.r_[0, gap_ends])
    buf[_ranges(base[later] + shift, width - shift)] = gap_b
    row_len = np.diff(base)
    row_len[later] -= shift
    if shift.any():
        keep = np.ones(len(buf), dtype=bool)
        keep[_ranges(base[later], shift)] = False
        buf = buf[keep]

    def spliced(c):
        o, d = _offsets_and_data(sub[c])
        return _binary_column(d[o[0] : o[-1]], (o[1:] - o[0]).astype(np.int64), bounds)

    def per_term(c, op=np.add):
        return pa.array(op.reduceat(num(c), starts).astype(np.int64))

    T = len(counts)
    return pa.table(
        {
            "term": sub["term"].take(pa.array(starts)),
            "bucket": pa.array(np.zeros(T, dtype=np.int32)),
            "block_id": pa.array(np.zeros(T, dtype=np.int32)),
            "first_doc": pa.array(first[starts], pa.uint64()),
            "last_doc": pa.array(last[bounds[1:] - 1], pa.uint64()),
            "df": per_term("df"),
            "cf": per_term("cf"),
            "max_tf": per_term("max_tf", np.maximum),
            "n_docs": per_term("n_docs"),
            "docs": _binary_column(buf, np.cumsum(row_len), bounds),
            "fields": spliced("fields"),
            "tfs": spliced("tfs"),
            "positions": spliced("positions"),
        }
    )


def merge_runs_batch(batch: pa.Table, block_cf: int = DEFAULT_BLOCK_CF) -> pa.Table:
    """Merge a batch of posting runs (many terms at once) that holds
    every run of each of its terms, in any order.

    The term shuffle (``pipelines.build.term_partitions``) hands it all
    runs in-process, or one sort partition per Ray task, so one call
    merges thousands of terms with ZERO per-group scheduling overhead.
    A term's runs are DISJOINT when, in (first_doc, block_id) order,
    each ends strictly before the next begins (an equal boundary doc is
    a multi-field doc split across batches).  Four paths, each
    vectorized over all of its terms — no per-term Python:

    * single-run terms and doc-stats sentinel rows pass through as one
      ``filter``;
    * HOT terms (disjoint runs, total cf > block_cf — stop words):
      metadata-only block renumber on the whole sub-table, payloads
      untouched (skew safety);
    * FRAGMENTED terms (disjoint runs, total cf ≤ block_cf — the bulk,
      as each batch and session appends new doc ids): one block
      spliced from the runs' bytes by :func:`_splice_runs`, with no
      decode and no re-encode.  Its payloads are the runs' payloads
      concatenated, each later run's first ``docs`` varint turned from
      an absolute id into the gap from the previous run's last doc —
      byte for byte the block the encoder writes for the same
      occurrences;
    * OVERLAPPING terms (a multi-field doc split across batches, ids
      reused across sessions — rare): :func:`decode_occurrences`, one
      ``lexsort`` back into (term, doc, field, token) order, then the
      same :func:`encode_posting_rows` the invert uses (which chunks a
      merged list past ``block_cf``).

    Output order (part of the contract, on every path): rows sorted by
    (``term``, ``first_doc``, ``block_id``), the order in which a
    partition's blob records and catalog rows are written.
    """
    n = batch.num_rows
    if n == 0:
        return batch
    terms = batch["term"]
    if isinstance(terms, pa.ChunkedArray):
        terms = terms.combine_chunks()
    dict_arr = terms.dictionary_encode()
    codes = np.asarray(dict_arr.indices.to_numpy(zero_copy_only=False), dtype=np.int64)
    sent_code = np.asarray(
        pc.starts_with(dict_arr.dictionary, pattern=DOCSTATS_TERM_PREFIX).to_numpy(
            zero_copy_only=False
        )
    )
    first = np.asarray(batch["first_doc"].to_numpy(zero_copy_only=False), dtype=np.uint64)
    blk_id = np.asarray(batch["block_id"].to_numpy(zero_copy_only=False), dtype=np.int64)
    # canonical per-term run order: the batch holds all of a term's
    # runs, but neither contiguous nor in order
    order = np.lexsort((blk_id, first, codes))
    if not np.array_equal(order, np.arange(n)):
        batch = batch.take(pa.array(order)).combine_chunks()
        codes, first = codes[order], first[order]
        terms = batch["term"]
        if isinstance(terms, pa.ChunkedArray):
            terms = terms.combine_chunks()
    last = np.asarray(batch["last_doc"].to_numpy(zero_copy_only=False), dtype=np.uint64)
    cf = np.asarray(batch["cf"].to_numpy(zero_copy_only=False), dtype=np.int64)

    change = np.empty(n, dtype=bool)
    change[0] = True
    np.not_equal(codes[1:], codes[:-1], out=change[1:])
    starts = np.flatnonzero(change)
    counts = np.diff(np.r_[starts, n])
    single = counts == 1
    sent = sent_code[codes[starts]]
    if (single | sent).all():
        return _term_sorted(batch)
    # per-term strict disjointness
    okrow = np.ones(n, dtype=bool)
    okrow[1:] = (last[:-1] < first[1:]) | (codes[1:] != codes[:-1])
    disjoint = np.logical_and.reduceat(okrow, starts)
    total_cf = np.add.reduceat(cf, starts)

    multi = ~single & ~sent
    hot = multi & disjoint & (total_cf > block_cf)
    fragmented = multi & disjoint & ~hot
    overlap = multi & ~disjoint

    def rows_of(term_mask):
        return pa.array(np.repeat(term_mask, counts))

    out_tables = []
    pass_rows = np.repeat(single | sent, counts)
    if pass_rows.any():
        out_tables.append(batch.filter(pa.array(pass_rows)))
    if hot.any():
        # metadata-only renumber: block_id = position within the term's
        # (first_doc, block_id)-ordered run; payloads untouched
        pos_in_term = np.arange(n, dtype=np.int64) - np.repeat(starts, counts)
        hot_rows = np.repeat(hot, counts)
        sub = batch.filter(pa.array(hot_rows))
        sub = sub.set_column(
            sub.schema.get_field_index("block_id"),
            "block_id",
            pa.array(pos_in_term[hot_rows].astype(np.int32)),
        )
        out_tables.append(sub)
    if fragmented.any():
        out_tables.append(
            _splice_runs(batch.filter(rows_of(fragmented)).combine_chunks(), counts[fragmented])
        )
    if overlap.any():
        sub = batch.filter(rows_of(overlap)).combine_chunks()
        occ_docs, occ_fields, occ_tokens = decode_occurrences(sub)
        r_starts = starts[overlap]
        bounds = np.zeros(len(r_starts) + 1, dtype=np.int64)
        np.cumsum(total_cf[overlap], out=bounds[1:])
        term_idx = np.repeat(np.arange(len(r_starts)), np.diff(bounds))
        o = np.lexsort((occ_tokens, occ_fields, occ_docs, term_idx))
        out_tables.append(
            encode_posting_rows(
                terms.take(pa.array(r_starts)),
                bounds, occ_docs[o], occ_fields[o], occ_tokens[o], block_cf,
            )
        )
    return _term_sorted(pa.concat_tables(out_tables).combine_chunks())


def _term_sorted(t: pa.Table) -> pa.Table:
    """``t`` in (term, first_doc, block_id) order: one stable
    ``sort_indices`` + ``take``, skipped when already in order."""
    idx = pc.sort_indices(
        t, sort_keys=[("term", "ascending"), ("first_doc", "ascending"), ("block_id", "ascending")]
    )
    if np.array_equal(idx.to_numpy(), np.arange(t.num_rows)):
        return t
    return t.take(idx)
