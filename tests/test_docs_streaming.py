"""Docs tables: the call that merges a term partition writes its docs
rows, so a segment holds one docs file per partition that carries
doc-stats sentinel rows.  On the dataset path, with the term sort
forced (``common.GATHER_BYTES`` = -1), explicit ids interleaved across
invert batches give docs files with overlapping doc ranges, which the
eager and the paged doc-length tables both serve.  When the input docs
files' bytes pass ``common.GATHER_BYTES`` a compaction's docs merge
streams through Ray, with the same counters and search results."""

import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from fulltextsearch_ray.functions import common
from fulltextsearch_ray.pipelines.build import build_index, compact_index
from fulltextsearch_ray.pipelines.query import IndexSearcher
from fulltextsearch_ray.sources.corpus import write_synth_corpus
from fulltextsearch_ray.state.index import load_manifest, load_meta, segment_dir

# sha256 over the sorted (doc_id, doc_len, sha256) rows of the docs table
# the interleaved-ids build below writes (pinned from the build that
# split the docs table out of a postings parquet file)
INTERLEAVED_DOCS_DIGEST = "ab17a188a6bf3cbd9995570c2b85a43238e1b4a6130036f96f8d3037a177d6b3"


@pytest.fixture(scope="module")
def corpus(ray_session, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("dscorpus"))
    write_synth_corpus(d, 300, rows_per_file=75)
    return d


def docs_digest(idx) -> str:
    t = pa.concat_tables(
        pq.read_table(os.path.join(segment_dir(idx, s), "docs"), columns=["doc_id", "doc_len", "sha256"])
        for s in load_meta(idx).segments
    ).sort_by([("doc_id", "ascending"), ("doc_len", "ascending"), ("sha256", "ascending")])
    h = hashlib.sha256()
    for name in t.column_names:
        h.update(repr(t[name].to_pylist()).encode())
    return h.hexdigest()


def interleaved_index(idx):
    """200 docs over a three-word vocabulary in 8 input blocks, ids 1..200
    shuffled across them and inverted in 4-doc batches: each batch's
    sentinel row spans a wide id range, the sentinel rows are a large
    share of the shuffled rows, and a forced sort runs one partition
    per input block, so several partitions write docs files whose doc
    ranges overlap."""
    import ray.data

    rng = np.random.default_rng(3)
    ids = rng.permutation(np.arange(1, 201, dtype=np.uint64))
    texts = [" ".join(rng.choice(["red", "green", "blue"], size=int(rng.integers(1, 9))))
             for _ in range(200)]
    blocks = [
        pa.table({"doc_id": ids[j * 25 : (j + 1) * 25], "text": texts[j * 25 : (j + 1) * 25]})
        for j in range(8)
    ]
    build_index(ray.data.from_arrow(blocks), idx, doc_id_col="doc_id", batch_size=4, overwrite=True)
    return idx


def test_overlapping_docs_files_serve_doc_lengths(ray_session, tmp_path, monkeypatch):
    monkeypatch.setattr(common, "GATHER_BYTES", -1)
    idx = interleaved_index(str(tmp_path / "idx"))
    (seg,) = load_meta(idx).segments
    ranges = sorted((g[0], g[1]) for info in load_manifest(idx, seg).docs_stats.values()
                    for g in info["row_groups"])
    assert len(ranges) >= 2
    assert any(lo <= prev_hi for (_, prev_hi), (lo, _) in zip(ranges, ranges[1:]))
    assert docs_digest(idx) == INTERLEAVED_DOCS_DIGEST
    eager = IndexSearcher(idx)
    lazy = IndexSearcher(idx, doclen_budget_rows=0)
    assert lazy._lazy_lens is not None and eager._lazy_lens is None
    for q in ["red", "green blue", "red green blue"]:
        for k in (5, 50):
            assert eager.bm25_topk(q, k=k).equals(lazy.bm25_topk(q, k=k)), (q, k)


def test_compact_streams_docs_past_budget(corpus, tmp_path_factory, monkeypatch):
    idx = str(tmp_path_factory.mktemp("idx_compact"))
    build_index(corpus, idx, text_col="content", overwrite=True)
    build_index(corpus, idx, text_col="content")  # second segment
    s_before = IndexSearcher(idx)
    expected = {q: s_before.bm25_topk(q, k=10) for q in ["index builder", "posting merge"]}
    before = [load_manifest(idx, s) for s in load_meta(idx).segments]
    monkeypatch.setattr(common, "GATHER_BYTES", -1)
    compact_index(idx)
    meta = load_meta(idx)
    assert len(meta.segments) == 1
    # Ray's write, not the driver's one part-0 file
    assert os.listdir(os.path.join(segment_dir(idx, meta.segments[0]), "docs")) != ["part-0.parquet"]
    # the compacted segment's counters come through the streaming
    # aggregate (budget -1) and equal the pre-compaction roll-up
    man = load_manifest(idx, meta.segments[0])
    assert (man.num_docs, man.total_tokens, man.min_doc_id, man.max_doc_id) == (
        sum(m.num_docs for m in before), sum(m.total_tokens for m in before),
        min(m.min_doc_id for m in before), max(m.max_doc_id for m in before),
    )
    s_after = IndexSearcher(idx)
    for q, tbl in expected.items():
        assert s_after.bm25_topk(q, k=10).equals(tbl)
