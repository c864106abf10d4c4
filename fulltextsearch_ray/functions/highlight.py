"""Document reconstruction + match highlighting (the forward-index path).

The reference keeps a forward index (positions + original text) and
``TextDocument.Annotate(hits)`` uppercases matched tokens for the CLI's
search display (``IndexModels/TextDocument.cs:6-104``,
``ConsoleUtil/Program.cs:262``).  Here the original text stays in the
source Parquet, so highlighting re-tokenizes ONE document on demand —
no separate positions store needed (SURVEY.md §1.5).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..tokenizer import tokenize_with_positions


def annotate(text: str, hit_token_ids: "list[int] | np.ndarray") -> str:
    """Uppercase the tokens at the given 1-based token ids — the
    reference's ``TextDocument.Annotate`` display semantics."""
    hits = set(int(h) for h in hit_token_ids)
    out = []
    last = 0
    for tid, (_term, offset, length) in enumerate(tokenize_with_positions(text), start=1):
        if tid in hits:
            out.append(text[last:offset])
            out.append(text[offset : offset + length].upper())
            last = offset + length
    out.append(text[last:])
    return "".join(out)


def annotate_from_positions(
    text: str,
    hit_token_ids: "list[int] | np.ndarray",
    offsets: "list[int]",
    lengths: "list[int]",
) -> str:
    """Uppercase the tokens at the given 1-based token ids using STORED
    character spans (the forward store) — no tokenizer run.  Identical
    output to :func:`annotate` for any index built over the same text."""
    out = []
    last = 0
    for tid in sorted({int(h) for h in hit_token_ids}):
        if tid < 1 or tid > len(offsets):
            continue
        off, length = offsets[tid - 1], lengths[tid - 1]
        out.append(text[last:off])
        out.append(text[off : off + length].upper())
        last = off + length
    out.append(text[last:])
    return "".join(out)


def annotate_matches_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Batch highlighting stage: rows (doc_id, text, token_ids:list) →
    (doc_id, annotated).  Used after joining match results back to the
    source table (the reference's search-display pipeline, Q8)."""
    out = []
    for text, tids in zip(batch[text_col].to_pylist(), batch["token_ids"].to_pylist()):
        out.append(annotate(text or "", tids or []))
    return pa.table({"doc_id": batch["doc_id"], "annotated": pa.array(out, pa.string())})


def highlight_batch(batch: pa.Table, *, hits_ref, index_dir: str, text_col: str = "text") -> pa.Table:
    """Task UDF of :func:`highlight_matches`: the batch's documents that
    the hit table holds, annotated — (doc_id, annotated).

    The (doc_id, token_ids) hit table comes from the object store
    (``ray.put`` once by the driver, never shipped per batch and never
    a driver dict), the searcher from the process cache
    (:func:`~..pipelines.query.get_searcher`); per-doc character spans
    are fetched from the forward store for the batch's matching ids
    only (point lookups, nothing tokenized).  A task holds nothing once
    it returns, so no idle worker keeps a CPU after the dataset is
    consumed."""
    import ray

    from ..pipelines.query import get_searcher

    hits: pa.Table = ray.get(hits_ref)  # zero-copy object-store read
    hit_docs = np.asarray(hits["doc_id"].to_numpy(zero_copy_only=False), dtype=np.int64)
    order = np.argsort(hit_docs, kind="stable")
    hit_docs = hit_docs[order]
    ids = np.asarray(batch["doc_id"].to_numpy(zero_copy_only=False), dtype=np.int64)
    pos = np.minimum(np.searchsorted(hit_docs, ids), max(len(hit_docs) - 1, 0))
    hit = (hit_docs[pos] == ids) if len(hit_docs) else np.zeros(len(ids), bool)
    if not hit.any():
        return pa.table({"doc_id": pa.array([], pa.int64()), "annotated": pa.array([], pa.string())})
    rows = np.flatnonzero(hit)
    spans = get_searcher(index_dir).get_positions_many(ids[rows])
    hit_tokens = hits["token_ids"].combine_chunks().take(pa.array(order[pos[rows]]))
    # materialize ONLY the matched rows' texts (a whole-batch
    # to_pylist allocates every document's string for 2 matches)
    col = batch[text_col]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    matched_texts = col.take(pa.array(rows)).to_pylist()
    out_ids, out = [], []
    for j, r in enumerate(rows):
        did = int(ids[r])
        if did not in spans:
            # forward row missing for a hit doc (index built without
            # store_forward, or a partially-compacted segment) — a
            # descriptive error instead of an opaque KeyError
            raise ValueError(
                f"highlight: doc {did} matched the query but has no "
                f"forward-store positions (was the index built with "
                f"store_forward=True and fully compacted?)"
            )
        offs, lens = spans[did]
        out_ids.append(did)
        out.append(annotate_from_positions(matched_texts[j] or "", hit_tokens[j].as_py(), offs, lens))
    return pa.table({"doc_id": pa.array(out_ids, pa.int64()), "annotated": pa.array(out, pa.string())})


def highlight_matches(
    docs_ds,
    index_dir: str,
    query: str,
    *,
    text_col: str = "text",
    concurrency: int = 4,
):
    """Distributed highlight of every document matching ``query``:
    one searcher query produces the (match-sized) hit table, which is
    broadcast via the OBJECT STORE and joined to the corpus inside a
    task UDF (:func:`highlight_batch`); ``concurrency`` caps concurrent
    tasks.  The driver never holds a per-match dict or any character
    spans."""
    import ray

    from ..pipelines.query import get_searcher

    # field-1 matches only: token ids are per-(doc, FIELD) ordinals and
    # the stage annotates ONE source column (= field 1's text); the
    # merged-field search_docs shape would uppercase another field's
    # ordinals onto this column.  Multi-field display = one
    # highlight_matches per (column, field) with
    # search_field_tokens(query, field=f).
    hits = get_searcher(index_dir).search_field_tokens(query, field=1)
    hits_ref = ray.put(
        pa.table(
            {"doc_id": hits["doc_id"].cast(pa.int64()), "token_ids": hits["token_ids"]}
        )
    )
    return docs_ds.map_batches(
        highlight_batch,
        fn_kwargs={"hits_ref": hits_ref, "index_dir": index_dir, "text_col": text_col},
        batch_format="pyarrow",
        concurrency=concurrency,
    )
