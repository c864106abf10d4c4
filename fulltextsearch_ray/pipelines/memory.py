"""In-memory index variant — the reference's ``InMemoryIndex``
(behavior observed at ``Src/.../IndexTypes/InMemory/InMemoryIndex.cs:9-199``;
no code copied): build + search entirely without a segment directory.

Same distributed build pipeline as ``build_index`` (local invert →
term sort shuffle → vectorized run merge), but the resulting posting
blocks / docs / catalog are held as Arrow tables instead of parquet
files.  Materializing to one process is the CONTRACT of this variant
(the reference's in-memory index is likewise a single-process
structure for small/ephemeral corpora); use ``build_index`` for
anything that must scale past one node's memory.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..stages.invert import DEFAULT_BLOCK_CF, invert_batch_fn
from ..state.index import IndexMeta
from ..state.payloads import TermBlocks
from .build import aggregate_catalog, merge_term_runs
from .query import IndexSearcher


class InMemorySearcher(IndexSearcher):
    """IndexSearcher over Arrow tables — no files, no segment dirs.

    Reuses every query path of :class:`IndexSearcher` (boolean/phrase
    algebra, BM25 exhaustive + MaxScore-pruned, lookup/matchers) by
    overriding only the posting fetch: a term's blocks are one binary-
    searched slice of the in-memory postings table, which is sorted by
    (term, first_doc, block_id) — the decode order.
    """

    def __init__(self, postings: pa.Table, docs: pa.Table):
        # NOTE: deliberately does NOT call IndexSearcher.__init__ (that
        # path reads a directory); sets up the same state from tables.
        self.index_dir = None
        self.segments = ["mem"]
        self._postings = postings
        self._post_terms = np.asarray(postings["term"].to_pylist(), dtype=object)

        # catalog: per-term totals over blocks
        cat = aggregate_catalog(postings)
        self.terms = cat["term"].combine_chunks()
        self._df, self._cf, self._max_tf, self._df_docs = (
            np.asarray(cat[c].to_numpy(zero_copy_only=False), dtype=np.int64)
            for c in ("df", "cf", "max_tf", "df_docs")
        )
        self._terms_np = np.asarray(self.terms.to_pylist(), dtype=object)

        self._dl_docs = np.asarray(docs["doc_id"].to_numpy(zero_copy_only=False), dtype=np.uint64)
        self._dl_lens = np.asarray(docs["doc_len"].to_numpy(zero_copy_only=False), dtype=np.float64)
        o = np.argsort(self._dl_docs, kind="stable")
        self._dl_docs, self._dl_lens = self._dl_docs[o], self._dl_lens[o]

        self.meta = IndexMeta(
            num_docs=docs.num_rows,
            total_tokens=int(pc.sum(docs["doc_len"]).as_py() or 0),
            next_doc_id=int(self._dl_docs[-1]) + 1 if len(self._dl_docs) else 1,
        )
        self.docs = docs

        self._lazy_cats = None
        self._lazy_lens = None
        self._fwd_ranges = {}
        from ..state.caches import make_cache

        self._cache = make_cache("lru", 64)
        self._cache_entries = make_cache("lru", 4096)

    def _fetch_term_blocks(self, term: str, with_positions: bool) -> list[TermBlocks]:
        lo = int(np.searchsorted(self._post_terms, term, side="left"))
        hi = int(np.searchsorted(self._post_terms, term, side="right"))
        if lo == hi:
            return []
        t = self._postings.slice(lo, hi - lo)
        return [TermBlocks(
            "mem",
            np.asarray(t["df"].to_numpy(zero_copy_only=False)),
            np.asarray(t["first_doc"].to_numpy(zero_copy_only=False), dtype=np.uint64),
            np.asarray(t["last_doc"].to_numpy(zero_copy_only=False), dtype=np.uint64),
            t["docs"].to_pylist(), t["tfs"].to_pylist(),
            *((t["fields"].to_pylist(), t["positions"].to_pylist()) if with_positions else (None, None)),
        )]


def build_in_memory(
    source: "ray.data.Dataset | str",
    *,
    text_col: str = "text",
    text_cols: "list[str] | None" = None,
    doc_id_col: str | None = None,
    id_cols: "list[str] | None" = None,
    block_cf: int = DEFAULT_BLOCK_CF,
    batch_size: int | None = 1024,
) -> InMemorySearcher:
    """Build an ephemeral in-memory index with the distributed pipeline
    and return a searcher over it.  Writes NOTHING to disk."""
    from ..sources.corpus import normalize_corpus, read_corpus_with_ids
    from ..stages.invert import DOCSTATS_TERM_PREFIX, decode_docstats_rows

    if isinstance(source, str):
        if doc_id_col is None and id_cols is None:
            cols = sorted(set(text_cols or [text_col]))
            ds = read_corpus_with_ids(source, columns=cols, start_id=1)
        else:
            ds = normalize_corpus(
                ray.data.read_parquet(source), text_col, doc_id_col=doc_id_col,
                id_cols=id_cols, start_id=1,
            )
    else:
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
    merged = merge_term_runs(runs, block_cf)
    # in-memory materialization — the contract of this variant.
    # NOTE: merge_runs_batch emits each block term-sorted, but the
    # blocks' arrival order is not part of that contract and
    # _fetch_term_blocks binary-searches _post_terms, so re-sort the
    # concat — an unsorted table silently dropped terms from in-memory
    # search/BM25 results
    tbl = pa.concat_tables(ray.get(merged.to_arrow_refs()))
    tbl = tbl.sort_by(
        [("term", "ascending"), ("first_doc", "ascending"), ("block_id", "ascending")]
    )
    is_sentinel = pc.starts_with(tbl["term"], DOCSTATS_TERM_PREFIX)
    docs = decode_docstats_rows(tbl.filter(is_sentinel).select(["docs", "tfs", "positions"]))
    # no pre-sort: InMemorySearcher.__init__ argsorts the doc-length
    # arrays itself (a .take here materialized a reordered copy of the
    # whole docs table only for __init__ to re-sort a sorted input)
    postings = tbl.filter(pc.invert(is_sentinel)).combine_chunks()
    searcher = InMemorySearcher(postings, docs)
    # scoring sums tf across fields — the MaxScore bound scales by this
    searcher.meta.num_fields = len(text_cols) if text_cols else 1
    # known block budget → the tight (split-safe-gated) MaxScore bound
    searcher._min_block_cf = block_cf
    return searcher
