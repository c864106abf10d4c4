"""Distributed query serving + search-driver (Q8) tests."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from fulltextsearch_ray.extension import POSTING_CODECS
from fulltextsearch_ray.pipelines.build import build_index
from fulltextsearch_ray.pipelines.query import IndexSearcher, SearcherStage
from fulltextsearch_ray.sources.corpus import write_synth_corpus


@pytest.fixture(scope="module")
def small_index(ray_session, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("qcorpus"))
    write_synth_corpus(d, 300, rows_per_file=75)
    idx = str(tmp_path_factory.mktemp("qidx"))
    build_index(d, idx, text_col="content", overwrite=True)
    return idx


def test_searcher_stage_matches_direct(small_index):
    """Actor-pool distributed scoring must be rank-identical to the
    direct searcher — parallelism level must not change results."""
    s = IndexSearcher(small_index)
    queries = ["index builder", "def class return", "posting merge block", "cache token"]
    qt = pa.table(
        {
            "query_id": pa.array(range(len(queries)), pa.int64()),
            "query": pa.array(queries, pa.string()),
        }
    )
    out = (
        ray.data.from_arrow(qt)
        .map_batches(
            SearcherStage,
            fn_constructor_args=(small_index,),
            batch_format="pyarrow",
            concurrency=2,
            batch_size=2,
        )
        .to_pandas()
        .sort_values(["query_id", "rank"])
        .reset_index(drop=True)
    )
    for qid, q in enumerate(queries):
        direct = s.bm25_topk(q, k=10)
        got = out[out.query_id == qid]
        assert got.doc_id.tolist() == direct["doc_id"].to_pylist(), q
        np.testing.assert_allclose(got.score.values, direct["score"].to_numpy(), rtol=0)


def test_search_docs_grouping(small_index):
    s = IndexSearcher(small_index)
    term = s.terms[0].as_py()
    t = s.search_docs(f"WORD({term})")
    occ = s.get_postings(term)
    assert int(pa.compute.sum(t["n_matches"]).as_py()) == len(occ.docs)
    # doc order, unique docs
    ids = t["doc_id"].to_pylist()
    assert ids == sorted(set(ids))
    # token id lists align with match counts
    assert all(len(l) >= n for l, n in zip(t["token_ids"].to_pylist(), t["n_matches"].to_pylist()))


def test_search_docs_phrase_width(small_index):
    s = IndexSearcher(small_index)
    # find any adjacent pair to form a phrase from the corpus itself
    occ_term = None
    for t in s.terms.to_pylist()[:50]:
        m = s.search_docs(f"WORD({t})")
        if m.num_rows:
            occ_term = t
            break
    assert occ_term is not None


def test_codec_registry():
    # non-decreasing so the delta codec (binarycompressed) round-trips
    v = np.array([1, 5, 1000, 2**20], dtype=np.uint64)
    for name, codec in POSTING_CODECS.items():
        x = v.astype(np.uint32) if name in ("groupvarint", "binary") else v
        out = codec.decode(codec.encode(x))
        assert list(out[: len(v)]) == v.tolist(), name


def test_binary_vs_binarycompressed_distinct():
    """C2 (raw group-varint) and C3 (delta + group-varint) are distinct
    codecs: same logical values, different wire bytes, both exact."""
    v = np.array([100, 200, 300, 1_000_000], dtype=np.uint64)
    b2 = POSTING_CODECS["binary"].encode(v.astype(np.uint32))
    b3 = POSTING_CODECS["binarycompressed"].encode(v)
    assert b2 != b3
    assert list(POSTING_CODECS["binary"].decode(b2, 4)) == v.tolist()
    assert list(POSTING_CODECS["binarycompressed"].decode(b3, 4)) == v.tolist()
    # deltas compress the increasing run strictly better here
    assert len(b3) < len(b2)


def _assert_stage_matches_direct(stage, qt):
    out = stage(qt)
    assert out.schema == pa.schema(
        [("query_id", qt["query_id"].type), ("rank", pa.int32()),
         ("doc_id", pa.uint64()), ("score", pa.float64())]
    )
    want_rows = []
    for qid, q in zip(qt["query_id"].to_pylist(), qt["query"].to_pylist()):
        top = stage.searcher.bm25_topk(q, k=stage.k, mode=stage.mode)
        want_rows += [
            (qid, r + 1, d, s)
            for r, (d, s) in enumerate(zip(top["doc_id"].to_pylist(), top["score"].to_pylist()))
        ]
    got_rows = list(zip(*(out[c].to_pylist() for c in out.column_names)))
    assert got_rows == want_rows
    return out


def test_searcher_stage_all_oov_batch_keeps_schema(small_index):
    """A batch whose queries all miss (OOV) yields an EMPTY table whose
    query_id keeps the input type — an inferred null-typed column used
    to break schema unification when mixed with non-empty blocks."""
    qt = pa.table(
        {
            "query_id": pa.array([0, 1], pa.int64()),
            "query": pa.array(["zzqxvnope", "qqwwyyzz missingterm"], pa.string()),
        }
    )
    stage = SearcherStage(small_index)
    out = _assert_stage_matches_direct(stage, qt)
    assert out.num_rows == 0
    # end-to-end: an all-OOV block unions cleanly with a hit block
    qt2 = pa.table(
        {
            "query_id": pa.array([0, 1], pa.int64()),
            "query": pa.array(["zzqxvnope", "def class return"], pa.string()),
        }
    )
    ds = ray.data.from_arrow_refs(
        [ray.put(qt), ray.put(qt2)]
    ).map_batches(
        SearcherStage,
        fn_constructor_args=(small_index,),
        batch_format="pyarrow",
        batch_size=2,
        concurrency=2,
    )
    tbl = pa.concat_tables(ray.get(ds.to_arrow_refs()), promote_options="default")
    assert tbl.schema.field("query_id").type == pa.int64()
    assert tbl.num_rows > 0


def test_searcher_stage_mixed_batch_matches_direct(small_index):
    """OOV queries interleaved with hits: query ids and ranks line up
    with the per-query bm25_topk rows, in batch order."""
    qt = pa.table(
        {
            "query_id": pa.array(["q7", "q3", "q11", "q5", "q2"], pa.string()),
            "query": pa.array(
                ["zzqxvnope", "def class return", "index builder", "missingterm", "cache token"],
                pa.string(),
            ),
        }
    )
    out = _assert_stage_matches_direct(SearcherStage(small_index, k=4), qt)
    assert out.num_rows > 0 and set(out["query_id"].to_pylist()) <= {"q3", "q11", "q2"}
    _assert_stage_matches_direct(SearcherStage(small_index, mode="and"), qt)


def _mini_tbl(ids, words):
    return pa.table({
        "doc_id": pa.array(ids, pa.uint64()),
        "text": pa.array(words),
    })


def test_get_searcher_cache_invalidated_by_rebuild(ray_session, tmp_path):
    """An in-process incremental build/compaction must invalidate the
    get_searcher cache (stale searchers silently omitted new docs and
    crashed on compacted-away segment dirs)."""
    from fulltextsearch_ray.pipelines.build import compact_index
    from fulltextsearch_ray.pipelines.query import get_searcher

    idx = str(tmp_path / "gidx")
    build_index(ray.data.from_arrow(_mini_tbl([1], ["alpha beta"])), idx,
                doc_id_col="doc_id", overwrite=True)
    s1 = get_searcher(idx)
    assert {int(d) for d in s1.evaluate("WORD(beta)").docs} == {1}
    build_index(ray.data.from_arrow(_mini_tbl([2], ["beta gamma"])), idx,
                doc_id_col="doc_id")
    s2 = get_searcher(idx)
    assert s2 is not s1
    assert {int(d) for d in s2.evaluate("WORD(beta)").docs} == {1, 2}
    compact_index(idx)
    s3 = get_searcher(idx)
    assert s3 is not s2
    assert {int(d) for d in s3.evaluate("WORD(beta)").docs} == {1, 2}
