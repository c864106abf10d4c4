"""In-memory index variant — the reference's ``InMemoryIndex``
(behavior observed at ``Src/.../IndexTypes/InMemory/InMemoryIndex.cs:9-199``;
no code copied): build + search entirely without a segment directory.

The index is the partition commit of ``build_index`` kept in memory:
the same pipeline (local invert → term shuffle, one partition within
``GATHER_BYTES``, else one per sort block → vectorized run merge) and
the same encode of each merged partition
(:func:`~.build.encode_postings_partition`) give one payload blob
(``bytes``), one catalog table and one docs table per partition, and
nothing is written.  The searcher is a plain :class:`IndexSearcher` over
them, one segment whose blobs are read from memory, so lookups go
through the disk index's read path and record decoder.  Materializing
to one process is the CONTRACT of this variant (the reference's
in-memory index is likewise a single-process structure for
small/ephemeral corpora); use ``build_index`` for anything that must
scale past one node's memory.
"""

from __future__ import annotations

import ray.data

from ..stages.invert import DEFAULT_BLOCK_CF, invert_batch_fn, merge_runs_batch
from ..state.index import IndexMeta
from .build import (
    _check_one_file_per_term,
    empty_catalog,
    encode_postings_partition,
    read_invert_runs,
    term_partitions,
)
from .query import IndexSearcher


def build_in_memory(
    source: "ray.data.Dataset | str",
    *,
    text_col: str = "text",
    text_cols: "list[str] | None" = None,
    doc_id_col: str | None = None,
    id_cols: "list[str] | None" = None,
    block_cf: int = DEFAULT_BLOCK_CF,
    batch_size: int | None = 1024,
) -> IndexSearcher:
    """Build an ephemeral in-memory index with the distributed pipeline
    and return a searcher over it.  Writes NOTHING to disk."""
    from ..sources.corpus import normalize_corpus

    if isinstance(source, str) and doc_id_col is None and id_cols is None:
        # positional ids: the disk build's fused read + invert
        runs, _files = read_invert_runs(
            source, start_id=1, text_col=text_col, text_cols=text_cols,
            columns=sorted(set(text_cols or [text_col])), block_cf=block_cf,
        )
    else:
        if isinstance(source, str):
            source = ray.data.read_parquet(source)
        ds = normalize_corpus(source, text_col, doc_id_col=doc_id_col, id_cols=id_cols, start_id=1)
        runs = ds.map_batches(
            invert_batch_fn,
            fn_kwargs=dict(
                text_col=text_col, text_cols=text_cols, doc_id_col="doc_id",
                block_cf=block_cf, emit_docstats=True,
            ),
            batch_format="pyarrow",
            batch_size=batch_size,
        )
    blobs, cats, docs, parts = {}, [], [], []
    for rows in term_partitions(runs, lambda b: merge_runs_batch(b, block_cf=block_cf)):
        if not rows.num_rows:
            continue
        _stem, blob, cat, part_docs, counters = encode_postings_partition(rows)
        if blob is not None:
            blobs[cat["file"][0].as_py()] = blob
            cats.append(cat)
        if part_docs is not None:
            docs.append(part_docs)
        parts.append(counters)
    # the searcher reads one address per term: a term whose blocks
    # landed in two partitions would be read from only one of them
    _check_one_file_per_term("in-memory index", parts)
    with_docs = [p["max_doc_id"] for p in parts if p["num_docs"]]
    meta = IndexMeta(
        num_docs=sum(p["num_docs"] for p in parts),
        total_tokens=sum(p["total_tokens"] for p in parts),
        next_doc_id=max(with_docs, default=0) + 1,
        # scoring sums tf across fields — the MaxScore bound scales by this
        num_fields=len(text_cols) if text_cols else 1,
    )
    return IndexSearcher.from_tables(meta, cats or [empty_catalog()], docs, blobs, block_cf)
