"""The docs-table split must survive past the driver budget: with
``docs_driver_budget=0`` the sentinel rows flow through a Ray
filter → decode → sort → partitioned write instead of a driver-side
read, and the result (docs table content, manifest counters, search
results) is identical to the driver path."""

import os

import pyarrow.parquet as pq
import pytest

from fulltextsearch_ray.pipelines.build import build_index, compact_index
from fulltextsearch_ray.pipelines.query import IndexSearcher
from fulltextsearch_ray.sources.corpus import write_synth_corpus
from fulltextsearch_ray.state.index import load_manifest, load_meta, segment_dir


@pytest.fixture(scope="module")
def corpus(ray_session, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("dscorpus"))
    write_synth_corpus(d, 300, rows_per_file=75)
    return d


def _docs_table(idx):
    meta = load_meta(idx)
    import pyarrow as pa

    return pa.concat_tables(
        pq.read_table(os.path.join(segment_dir(idx, s), "docs")) for s in meta.segments
    )


def test_ray_docs_split_matches_driver_path(corpus, tmp_path_factory):
    idx_driver = str(tmp_path_factory.mktemp("idx_driver"))
    idx_ray = str(tmp_path_factory.mktemp("idx_ray"))
    m1 = build_index(corpus, idx_driver, text_col="content", num_buckets=4, overwrite=True)
    m2 = build_index(
        corpus, idx_ray, text_col="content", num_buckets=4, overwrite=True,
        docs_driver_budget=0,
    )
    d1 = _docs_table(idx_driver).sort_by("doc_id")
    d2 = _docs_table(idx_ray).sort_by("doc_id")
    assert d1.equals(d2)
    assert m1.num_docs == m2.num_docs and m1.total_tokens == m2.total_tokens
    man1 = load_manifest(idx_driver, load_meta(idx_driver).segments[0])
    man2 = load_manifest(idx_ray, load_meta(idx_ray).segments[0])
    assert (man1.num_docs, man1.total_tokens, man1.min_doc_id, man1.max_doc_id) == (
        man2.num_docs, man2.total_tokens, man2.min_doc_id, man2.max_doc_id,
    )
    s1, s2 = IndexSearcher(idx_driver), IndexSearcher(idx_ray)
    for q in ["index builder", "def class return"]:
        assert s1.bm25_topk(q, k=10).equals(s2.bm25_topk(q, k=10))


def test_compact_streams_docs_past_budget(corpus, tmp_path_factory):
    idx = str(tmp_path_factory.mktemp("idx_compact"))
    build_index(corpus, idx, text_col="content", num_buckets=4, overwrite=True)
    build_index(corpus, idx, text_col="content", num_buckets=4)  # second segment
    s_before = IndexSearcher(idx)
    expected = {q: s_before.bm25_topk(q, k=10) for q in ["index builder", "posting merge"]}
    before = [load_manifest(idx, s) for s in load_meta(idx).segments]
    compact_index(idx, docs_driver_budget=0)
    meta = load_meta(idx)
    assert len(meta.segments) == 1
    # the compacted segment's counters come through the streaming
    # aggregate (budget 0) and equal the pre-compaction roll-up
    man = load_manifest(idx, meta.segments[0])
    assert (man.num_docs, man.total_tokens, man.min_doc_id, man.max_doc_id) == (
        sum(m.num_docs for m in before), sum(m.total_tokens for m in before),
        min(m.min_doc_id for m in before), max(m.max_doc_id for m in before),
    )
    s_after = IndexSearcher(idx)
    for q, tbl in expected.items():
        assert s_after.bm25_topk(q, k=10).equals(tbl)
