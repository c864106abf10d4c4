"""Build-pipeline invariants: sha256 content equality, deterministic
doc ids (both schemes), partition-count/parallelism invariance of BM25
ranks, skewed-term handling, checkpoint resume."""

import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data

from fulltextsearch_ray.pipelines.build import build_index
from fulltextsearch_ray.pipelines.query import IndexSearcher
from fulltextsearch_ray.sources.corpus import (
    assign_doc_ids,
    read_corpus_with_ids,
    synth_code_batch,
    write_synth_corpus,
)
from fulltextsearch_ray.state.index import load_manifest, load_meta


@pytest.fixture(scope="module")
def corpus_dir(ray_session, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("synth"))
    write_synth_corpus(d, 400, rows_per_file=100)
    return d


def test_synth_corpus_deterministic():
    a = synth_code_batch(0, 50)
    b = synth_code_batch(0, 50)
    assert a.equals(b)
    assert a.column_names == ["repo", "path", "commit", "lang", "content"]


def test_positional_ids_deterministic(corpus_dir):
    ids1 = sorted(r["doc_id"] for r in read_corpus_with_ids(corpus_dir).select_columns(["doc_id"]).take_all())
    ids2 = sorted(r["doc_id"] for r in read_corpus_with_ids(corpus_dir).select_columns(["doc_id"]).take_all())
    assert ids1 == ids2 == list(range(1, 401))


def test_sorted_rank_ids_permutation_invariant(ray_session, corpus_dir):
    ds = ray.data.read_parquet(corpus_dir)
    a = assign_doc_ids(ds, ["repo", "path", "commit"]).to_pandas()
    b = assign_doc_ids(ds.random_shuffle(seed=1), ["repo", "path", "commit"]).to_pandas()
    a = a.sort_values(["repo", "path", "commit"]).reset_index(drop=True)
    b = b.sort_values(["repo", "path", "commit"]).reset_index(drop=True)
    assert (a["doc_id"].values == b["doc_id"].values).all()
    assert sorted(a["doc_id"]) == list(range(1, 401))


@pytest.fixture(scope="module")
def built_index(corpus_dir, tmp_path_factory):
    idx = str(tmp_path_factory.mktemp("synthidx"))
    build_index(corpus_dir, idx, text_col="content", overwrite=True)
    return idx


def test_sha256_invariant(corpus_dir, built_index):
    """Per-row sha256(content) in the docs table must equal a direct
    recomputation from the input corpus (BASELINE.json invariant)."""
    meta = load_meta(built_index)
    seg = meta.segments[0]
    docs = pq.read_table(
        os.path.join(built_index, "segments", seg, "docs"), columns=["doc_id", "sha256"]
    ).to_pandas().set_index("doc_id")["sha256"]
    src = read_corpus_with_ids(corpus_dir, columns=["content"]).to_pandas()
    expect = {
        int(r.doc_id): hashlib.sha256(r.content.encode()).hexdigest() for r in src.itertuples()
    }
    assert len(docs) == len(expect) == 400
    for doc_id, sha in docs.items():
        assert sha == expect[int(doc_id)]


def test_manifest_counters(built_index):
    meta = load_meta(built_index)
    man = load_manifest(built_index, meta.segments[0])
    assert man.num_docs == 400
    assert man.complete
    assert man.num_occurrences == man.total_tokens  # single-field corpus
    assert man.num_terms > 100
    assert meta.num_docs == 400


def test_checkpoint_skip(corpus_dir, built_index):
    """Re-running the same segment build must skip (resume semantics)."""
    meta1 = load_meta(built_index)
    meta2 = build_index(corpus_dir, built_index, text_col="content", segment=meta1.segments[0])
    assert meta2.segments == meta1.segments
    assert load_meta(built_index).num_docs == 400


def test_bm25_partition_invariance(ray_session, corpus_dir, built_index, tmp_path_factory):
    """Rank-identical top-k across partition counts — the same corpus
    built with different block structure must score identically."""
    idx2 = str(tmp_path_factory.mktemp("synthidx2"))
    ds = read_corpus_with_ids(corpus_dir).repartition(13)
    build_index(ds, idx2, text_col="content", doc_id_col="doc_id", overwrite=True)
    s1 = IndexSearcher(built_index)
    s2 = IndexSearcher(idx2)
    for q in ["index builder query", "def class return", "posting merge block cache"]:
        t1 = s1.bm25_topk(q, k=10)
        t2 = s2.bm25_topk(q, k=10)
        assert t1["doc_id"].to_pylist() == t2["doc_id"].to_pylist(), q
        np.testing.assert_allclose(
            t1["score"].to_numpy(), t2["score"].to_numpy(), rtol=0, atol=1e-12
        )


def test_bm25_matches_numpy_oracle(corpus_dir, built_index):
    """BM25 against a from-scratch sequential numpy oracle."""
    from fulltextsearch_ray.tokenizer import tokenize

    src = read_corpus_with_ids(corpus_dir, columns=["content"]).to_pandas()
    docs_tokens = {int(r.doc_id): tokenize(r.content) for r in src.itertuples()}
    N = len(docs_tokens)
    dl = {d: len(t) for d, t in docs_tokens.items()}
    avgdl = sum(dl.values()) / N
    query = ["index", "builder", "query"]

    scores = {}
    for term in query:
        df = sum(1 for t in docs_tokens.values() if term in t)
        if df == 0:
            continue
        idf = np.log((N - df + 0.5) / (df + 0.5) + 1.0)
        for d, toks in docs_tokens.items():
            tf = toks.count(term)
            if tf == 0:
                continue
            contrib = idf * tf * 2.2 / (tf + 1.2 * (1 - 0.75 + 0.75 * dl[d] / avgdl))
            scores[d] = scores.get(d, 0.0) + contrib
    expect = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:10]

    got = IndexSearcher(built_index).bm25_topk(query, k=10)
    assert got["doc_id"].to_pylist() == [d for d, _ in expect]
    np.testing.assert_allclose(
        got["score"].to_numpy(), [s for _, s in expect], rtol=1e-12
    )


def test_bm25_pruned_equals_exhaustive(corpus_dir, built_index):
    """MAXSCORE/block-max pruned top-k must equal the exhaustive TAAT."""
    s = IndexSearcher(built_index)
    for q in ["index builder query", "def class return token", "posting merge"]:
        from fulltextsearch_ray.tokenizer import tokenize

        terms = tokenize(q)
        full = s.bm25_topk(terms, k=10)
        pruned = s.bm25_topk_pruned(terms, k=10)
        assert full["doc_id"].to_pylist() == pruned["doc_id"].to_pylist(), q
        np.testing.assert_allclose(
            full["score"].to_numpy(), pruned["score"].to_numpy(), rtol=0, atol=1e-12
        )


def test_skewed_term_build(ray_session, tmp_path_factory):
    """Stop-word-heavy corpus: a term present in >50% of docs must
    still produce a correct, block-chunked posting list."""
    d = str(tmp_path_factory.mktemp("skew"))
    write_synth_corpus(d, 200, rows_per_file=50, heavy_term="the_end_marker", heavy_every=2)
    idx = str(tmp_path_factory.mktemp("skewidx"))
    build_index(d, idx, text_col="content", overwrite=True, block_cf=64)
    s = IndexSearcher(idx)
    df, cf = s.term_stats("the_end_marker")
    assert df == 100  # every 2nd doc
    assert cf == 300  # 3 occurrences each
    occ = s.get_postings("the_end_marker")
    assert len(occ.docs) == 300
    assert (np.diff(occ.docs.astype(np.int64)) >= 0).all()
    # block chunking honored (cf=300 > block_cf=64 → several blocks)
    cat = os.path.join(idx, "segments", load_meta(idx).segments[0], "catalog")
    t = pq.read_table(cat, filters=[("term", "=", "the_end_marker")])
    assert t["n_blocks"].to_pylist()[0] >= 4


def test_cap_lineage_pure():
    from fulltextsearch_ray.pipelines.build import cap_lineage

    files = [f"f{i:03d}" for i in range(10)]
    assert cap_lineage(files, budget=10) == files
    capped = cap_lineage(files, budget=4)
    assert len(capped) == 5  # summary + 2 head + 2 tail
    assert capped[0] == "<lineage summary: 10 files, f000 .. f009>"
    assert capped[1:3] == ["f000", "f001"]
    assert capped[3:] == ["f008", "f009"]


def test_manifest_lineage_capped_and_resume(ray_session, corpus_dir, tmp_path):
    """A build over more files than lineage_budget writes an O(budget)
    manifest (summary + sample), and segment-checkpoint resume still
    works (resume keys on completeness, not lineage)."""
    from fulltextsearch_ray.pipelines.build import cap_lineage  # noqa: F401

    idx = str(tmp_path / "idx")
    meta = build_index(
        corpus_dir, idx, text_col="content",
        overwrite=True, lineage_budget=2,
    )
    seg = meta.segments[-1]
    man = load_manifest(idx, seg)
    assert len(man.input_lineage) == 3  # summary + 1 head + 1 tail
    assert man.input_lineage[0].startswith("<lineage summary: 4 files")
    # checkpoint hit: rebuilding the same segment is a no-op
    meta2 = build_index(
        corpus_dir, idx, text_col="content",
        segment=seg, lineage_budget=2,
    )
    assert meta2.segments == meta.segments


def test_unsorted_doc_ids_within_batch_build_correctly(ray_session, tmp_path):
    """Regression: the single-field invert only stable-sorts by term and
    requires a (doc, token)-ordered stream — a batch whose doc ids
    arrive UNSORTED (user doc_id_col, assign_doc_ids rank) silently
    wrote corrupt blocks (row-order streams, wrong first/last_doc,
    split df).  Build from shuffled rows must equal the sorted build."""
    import pyarrow as pa
    import ray.data

    from fulltextsearch_ray.pipelines.query import IndexSearcher

    rng = np.random.default_rng(5)
    n = 300
    words = ["ant", "bee", "cat", "dog", "elk"]
    texts = [" ".join(rng.choice(words, size=1 + i % 6)) for i in range(n)]
    ids = np.arange(1, n + 1, dtype=np.uint64)
    perm = rng.permutation(n)

    def build(order, path):
        tbl = pa.table(
            {"doc_id": pa.array(ids[order], pa.uint64()),
             "text": pa.array([texts[i] for i in order], pa.string())}
        )
        build_index(ray.data.from_arrow(tbl), path, text_col="text",
                    doc_id_col="doc_id", overwrite=True)
        return IndexSearcher(path)

    s_sorted = build(np.arange(n), str(tmp_path / "sorted"))
    s_shuf = build(perm, str(tmp_path / "shuffled"))
    for w in words:
        a = s_sorted.bm25_topk(w, k=20)
        b = s_shuf.bm25_topk(w, k=20)
        assert a.equals(b), w
        ra = s_sorted.search_to_string(f"WORD({w})")
        rb = s_shuf.search_to_string(f"WORD({w})")
        assert ra == rb, w


def test_build_rejects_duplicate_doc_ids_in_batch(ray_session, tmp_path):
    """Duplicate user doc_ids in one batch used to skip the occurrence
    sort (nondecreasing guard) and silently merge two documents into
    one posting entry with non-monotonic positions — must fail loud."""
    idx = str(tmp_path / "idx")
    tbl = pa.table({
        "doc_id": pa.array([5, 5], pa.int64()),
        "text": pa.array(["b a", "a"], pa.string()),
    })
    with pytest.raises(Exception, match="must be unique"):
        build_index(ray.data.from_arrow(tbl), idx, text_col="text", doc_id_col="doc_id")


def test_rebuild_of_listed_segment_does_not_double_count(ray_session, tmp_path):
    """A segment listed in meta whose manifest is lost gets rebuilt;
    meta.num_docs/total_tokens must be RECOMPUTED from manifests, not
    incremented on top of the previously-counted totals (the old +=
    permanently inflated avgdl → silently wrong BM25)."""
    from fulltextsearch_ray.state.index import segment_dir

    idx = str(tmp_path / "ridx")
    src = ray.data.from_arrow(
        pa.table({"doc_id": pa.array([1, 2], pa.uint64()), "text": ["aa bb cc", "dd ee"]})
    )
    build_index(src, idx, doc_id_col="doc_id", segment="seg-00000", overwrite=True)
    before = load_meta(idx)
    assert before.num_docs == 2 and before.total_tokens == 5
    # lose the manifest: segment now listed but "incomplete"
    os.remove(os.path.join(segment_dir(idx, "seg-00000"), "manifest.json"))
    build_index(src, idx, doc_id_col="doc_id", segment="seg-00000")
    after = load_meta(idx)
    assert after.num_docs == 2, "rebuild double-counted num_docs"
    assert after.total_tokens == 5, "rebuild double-counted total_tokens"


def _recount(idx: str, seg: str) -> dict:
    """A segment's manifest counters, recounted from its docs and catalog."""
    from fulltextsearch_ray.state.index import segment_dir

    docs = pq.read_table(os.path.join(segment_dir(idx, seg), "docs"), columns=["doc_id", "doc_len"])
    cat = pq.read_table(os.path.join(segment_dir(idx, seg), "catalog"), columns=["cf"])
    ids = docs["doc_id"].to_numpy()
    return {
        "num_docs": docs.num_rows, "total_tokens": int(docs["doc_len"].to_numpy().sum()),
        "min_doc_id": int(ids.min()), "max_doc_id": int(ids.max()),
        "num_terms": cat.num_rows, "num_occurrences": int(cat["cf"].to_numpy().sum()),
    }


def test_segment_commit_reads_nothing_back(ray_session, corpus_dir, tmp_path, monkeypatch):
    """From the end of the term shuffle to the manifest, nothing reads
    a row of the segment being written: the merging tasks write its
    docs table and return its counters, and a compaction takes its docs
    counters from its input manifests.  With parquet table and dataset
    reads, Ray parquet reads, blob directory reads and Python file
    opens for reading refused for every path under that segment (its
    footers stay readable: the manifest keeps their stats), a build, a
    second session and their compaction complete, no segment has a
    postings directory, the parquet-path docs files hold disjoint doc
    ranges, and every counter equals a recount of what was written."""
    import builtins

    from fulltextsearch_ray.pipelines import build as build_mod
    from fulltextsearch_ray.state import payloads
    from fulltextsearch_ray.state.index import segment_dir

    sealed = []  # the directory of the segment whose commit runs

    def inside(path) -> bool:
        return bool(sealed) and os.path.abspath(str(path)).startswith(sealed[0])

    def refusing(real, reads=lambda *_a, **_k: True):
        def call(source, *a, **kw):
            paths = source if isinstance(source, (list, tuple)) else [source]
            if reads(source, *a, **kw) and any(inside(p) for p in paths):
                raise AssertionError(f"the segment commit read {source} back")
            return real(source, *a, **kw)
        return call

    def read_mode(_file, mode="r", *_a, **_k):
        return not any(c in mode for c in "wax+")

    for owner, name in ((pq, "read_table"), (pq, "ParquetDataset"), (ray.data, "read_parquet"),
                        (payloads, "read_directory")):
        monkeypatch.setattr(owner, name, refusing(getattr(owner, name)))
    monkeypatch.setattr(builtins, "open", refusing(builtins.open, read_mode))
    write, commit = build_mod._write_postings, build_mod._write_catalog_and_manifest

    def write_then_seal(runs, seg_path, block_cf):
        out = write(runs, seg_path, block_cf)
        sealed.append(os.path.join(os.path.abspath(seg_path), ""))
        return out

    def commit_then_unseal(*a, **kw):
        try:
            return commit(*a, **kw)
        finally:
            sealed.clear()

    monkeypatch.setattr(build_mod, "_write_postings", write_then_seal)
    monkeypatch.setattr(build_mod, "_write_catalog_and_manifest", commit_then_unseal)
    idx = str(tmp_path / "idx")
    build_index(corpus_dir, idx, text_col="content", overwrite=True)
    more = pa.table({"doc_id": pa.array([1000, 1001], pa.uint64()),
                     "text": ["fresh session words", "more fresh words here"]})
    build_index(ray.data.from_arrow(more), idx, doc_id_col="doc_id")
    segs = load_meta(idx).segments
    want = [_recount(idx, s) for s in segs]
    got = [{k: getattr(load_manifest(idx, s), k) for k in want[0]} for s in segs]
    assert got == want and want[1]["num_docs"] == 2
    ranges = sorted(g[:2] for info in load_manifest(idx, segs[0]).docs_stats.values()
                    for g in info["row_groups"])
    assert all(hi < lo for (_, hi), (lo, _) in zip(ranges, ranges[1:]))
    build_mod.compact_index(idx)
    (seg,) = load_meta(idx).segments
    counters = _recount(idx, seg)
    assert {k: getattr(load_manifest(idx, seg), k) for k in counters} == counters
    assert counters["num_docs"] == 402 and counters["max_doc_id"] == 1001
    assert not any(os.path.exists(os.path.join(segment_dir(idx, s), "postings")) for s in segs + [seg])


def test_compact_without_manifest_raises(ray_session, tmp_path):
    """A compaction takes its docs counters from the input manifests, so
    an input segment without one is refused by name, and the index is
    left as it was."""
    from fulltextsearch_ray.pipelines.build import compact_index
    from fulltextsearch_ray.state.index import segment_dir

    idx = str(tmp_path / "idx")
    for i, words in enumerate(["aa bb", "bb cc"]):
        tbl = pa.table({"doc_id": pa.array([i + 1], pa.uint64()), "text": [words]})
        build_index(ray.data.from_arrow(tbl), idx, doc_id_col="doc_id", overwrite=not i)
    segs = load_meta(idx).segments
    os.remove(os.path.join(segment_dir(idx, segs[1]), "manifest.json"))
    with pytest.raises(ValueError, match=f"segment {segs[1]} has no readable manifest"):
        compact_index(idx)
    assert load_meta(idx).segments == segs
