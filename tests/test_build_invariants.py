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
from fulltextsearch_ray.state.index import load_manifest, load_meta, segment_dir


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


# -- the term shuffle: in-process under GATHER_BYTES, a sort past it ---------

# the catalog's blob address: where a term's record lies, not what it holds
ADDRESS = ("file", "offset", "bm25_len", "len")
DELTA = pa.table({"doc_id": pa.array(range(1000, 1060), pa.uint64()),
                  "text": [f"the the fresh{i % 7} words the" for i in range(60)]})


def _segment_files(idx: str) -> dict:
    """Path → bytes of every payload, catalog and docs file of the
    index's segments (the manifests hold ``created_at``)."""
    out = {}
    for s in load_meta(idx).segments:
        for sub in ("payloads", "catalog", "docs"):
            d = os.path.join(segment_dir(idx, s), sub)
            for f in sorted(os.listdir(d)):
                with open(os.path.join(d, f), "rb") as fh:
                    out[os.path.relpath(os.path.join(d, f), idx)] = fh.read()
    return out


def _build(corpus_dir: str, idx: str, path: str) -> None:
    """The corpus as one segment (by positional ids, on the parquet or
    the dataset path) plus a delta session whose docs all carry one
    stop word, at a block budget small enough to chunk and hot-merge."""
    if path == "parquet":
        build_index(corpus_dir, idx, text_col="content", block_cf=64, overwrite=True)
    else:
        ds = read_corpus_with_ids(corpus_dir, columns=["content"])
        build_index(ds, idx, text_col="content", doc_id_col="doc_id", block_cf=64, overwrite=True)
    build_index(ray.data.from_arrow(DELTA), idx, doc_id_col="doc_id", block_cf=64)


@pytest.mark.parametrize("path", ["parquet", "dataset"])
def test_segments_are_byte_reproducible(corpus_dir, tmp_path, path):
    """Runs within ``GATHER_BYTES`` merge in-process, with no sampled
    sort boundaries, so a segment is a function of its input: two
    builds of one corpus, each with a delta session and a compaction,
    write the same payload, catalog and docs files, names and bytes."""
    from fulltextsearch_ray.pipelines.build import compact_index

    runs = []
    for i in range(2):
        idx = str(tmp_path / f"idx{i}")
        _build(corpus_dir, idx, path)
        built = _segment_files(idx)
        compact_index(idx, block_cf=64)
        runs.append((built, _segment_files(idx)))
    assert runs[0] == runs[1]
    built, compacted = runs[0]
    assert len(built) == 6 and len(compacted) == 3  # one file of each per segment


def _catalog_rows(idx: str) -> pa.Table:
    return pa.concat_tables(
        pq.read_table(os.path.join(segment_dir(idx, s), "catalog")).drop_columns(list(ADDRESS))
        for s in load_meta(idx).segments
    ).sort_by("term")


def _docs_rows(idx: str) -> pa.Table:
    return pa.concat_tables(
        pq.read_table(os.path.join(segment_dir(idx, s), "docs")) for s in load_meta(idx).segments
    ).sort_by("doc_id")


def _dump(idx: str) -> list:
    from fulltextsearch_ray.pipelines.query import dump_postings_dataset

    return sorted(tuple(r.values()) for r in dump_postings_dataset(idx).take_all())


PROBES = ["the words", "def class return", "index builder cache", "fresh3 posting merge"]


def test_in_process_and_sort_shuffles_agree(corpus_dir, tmp_path, monkeypatch):
    """The runs merged in-process (the default budget) and through the
    sort (``GATHER_BYTES`` = -1) give the same catalog rows but for
    their blob addresses, the same docs rows, the same postings dump
    and the same BM25 ranks, after the build, after a delta session
    and its compaction, and in the in-memory index."""
    from fulltextsearch_ray.functions import common
    from fulltextsearch_ray.pipelines.build import compact_index
    from fulltextsearch_ray.pipelines.memory import build_in_memory

    def state(idx: str) -> tuple:
        s = IndexSearcher(idx)
        return (_catalog_rows(idx), _docs_rows(idx), _dump(idx),
                [s.bm25_topk(q, k=10) for q in PROBES])

    got, catalog_files = [], []
    for budget in (common.GATHER_BYTES, -1):
        monkeypatch.setattr(common, "GATHER_BYTES", budget)
        idx = str(tmp_path / f"idx{budget}")
        build_index(corpus_dir, idx, text_col="content", block_cf=64, overwrite=True)
        built = state(idx)
        (seg,) = load_meta(idx).segments
        catalog_files.append(len(load_manifest(idx, seg).catalog_stats))
        build_index(ray.data.from_arrow(DELTA), idx, doc_id_col="doc_id", block_cf=64)
        compact_index(idx, block_cf=64)
        mem = build_in_memory(read_corpus_with_ids(corpus_dir, columns=["content"]).repartition(4),
                              text_col="content", doc_id_col="doc_id", block_cf=64, batch_size=100)
        terms = mem.terms.to_pylist()
        got.append((built, state(idx), terms, [mem.term_stats(t) for t in terms],
                    [mem.bm25_topk(q, k=10) for q in PROBES], len(mem.posting_reader._blobs)))
    assert catalog_files[0] == 1 and catalog_files[1] >= 2  # the sort really ran
    assert got[0][5] == 1 and got[1][5] >= 2
    for a, b in zip(got[0][:5], got[1][:5]):
        assert a == b


def test_sorted_shuffle_runs_its_input_once(ray_session, tmp_path, monkeypatch):
    """Past the budget the runs are drained once and the sort is fed
    from their blocks: the read → invert stage never runs twice.  Each
    execution of a source block leaves its own marker file."""
    import uuid

    from fulltextsearch_ray.functions import common

    marks = tmp_path / "marks"
    marks.mkdir()
    n_blocks = 6

    def mark(b: pa.Table) -> pa.Table:
        (marks / f"{b['doc_id'][0].as_py()}-{uuid.uuid4().hex}").touch()
        return b

    rng = np.random.default_rng(7)
    vocab = [f"w{i}" for i in range(50)]
    blocks = [
        pa.table({"doc_id": pa.array(range(j * 20 + 1, j * 20 + 21), pa.uint64()),
                  "text": [" ".join(rng.choice(vocab, size=12)) for _ in range(20)]})
        for j in range(n_blocks)
    ]
    ds = ray.data.from_arrow(blocks).map_batches(mark, batch_format="pyarrow", batch_size=None)
    monkeypatch.setattr(common, "GATHER_BYTES", 1)
    idx = str(tmp_path / "idx")
    build_index(ds, idx, doc_id_col="doc_id", batch_size=20, overwrite=True)
    firsts = sorted(int(p.name.split("-")[0]) for p in marks.iterdir())
    assert firsts == [j * 20 + 1 for j in range(n_blocks)]
    (seg,) = load_meta(idx).segments
    assert len(load_manifest(idx, seg).catalog_stats) >= 2  # the sort ran
    assert IndexSearcher(idx).num_docs == n_blocks * 20


@pytest.mark.parametrize("gather_bytes", [None, 1], ids=["in_process", "sort"])
def test_stored_tables_read_the_input_once(ray_session, tmp_path, monkeypatch, gather_bytes):
    """A dataset-path build that stores metadata and the forward store
    executes each source block once: the invert call that tokenizes a
    batch also writes its docs_meta and forward files.  Each execution
    of a source block leaves its own marker file."""
    import glob
    import uuid

    from fulltextsearch_ray.functions import common

    marks = tmp_path / "marks"
    marks.mkdir()

    def mark(b: pa.Table) -> pa.Table:
        (marks / f"{b['doc_id'][0].as_py()}-{uuid.uuid4().hex}").touch()
        return b

    blocks = [
        pa.table({"doc_id": pa.array(range(j * 20 + 1, j * 20 + 21), pa.uint64()),
                  "text": [f"w{i % 7} w{(i * j) % 5} shared" for i in range(20)],
                  "lang": ["en", "de"] * 10})
        for j in range(4)
    ]
    ds = ray.data.from_arrow(blocks).map_batches(mark, batch_format="pyarrow", batch_size=None)
    if gather_bytes is not None:
        monkeypatch.setattr(common, "GATHER_BYTES", gather_bytes)
    idx = str(tmp_path / "idx")
    build_index(ds, idx, doc_id_col="doc_id", batch_size=20, meta_cols=("lang",),
                store_forward=True, overwrite=True)
    firsts = sorted(int(p.name.split("-")[0]) for p in marks.iterdir())
    assert firsts == [j * 20 + 1 for j in range(4)]
    (seg,) = load_meta(idx).segments
    for sub in ("docs_meta", "forward"):
        assert len(glob.glob(os.path.join(segment_dir(idx, seg), sub, "*.parquet"))) == 4, sub
    s = IndexSearcher(idx)
    assert s.get_metadata(21) == {"lang": "en"} and s.get_metadata(80) == {"lang": "de"}
    assert s.get_positions(80)[0] == [0, 3, 6]


def test_compaction_equals_one_build(corpus_dir, tmp_path):
    """The chain-merge contract: two sessions over the halves of a
    corpus, compacted, hold the same postings (dump), catalog rows but
    for their blob addresses and docs rows as one build of the whole
    corpus.  The sessions share terms, so the compaction merges
    doc-disjoint runs of one term from both."""
    import shutil

    from fulltextsearch_ray.pipelines.build import compact_index

    files = sorted(f for f in os.listdir(corpus_dir) if f.endswith(".parquet"))
    assert len(files) >= 2
    idx = str(tmp_path / "sessions")
    for i, half in enumerate((files[: len(files) // 2], files[len(files) // 2 :])):
        part = tmp_path / f"half{i}"
        part.mkdir()
        for f in half:
            shutil.copy(os.path.join(corpus_dir, f), part / f)
        build_index(str(part), idx, text_col="content")
    a, b = (set(pq.read_table(os.path.join(segment_dir(idx, s), "catalog"))["term"].to_pylist())
            for s in load_meta(idx).segments)
    assert a & b
    compact_index(idx)
    one = str(tmp_path / "one")
    build_index(corpus_dir, one, text_col="content")
    assert _catalog_rows(idx).equals(_catalog_rows(one))
    assert _docs_rows(idx).equals(_docs_rows(one))
    assert _dump(idx) == _dump(one)


# -- steps without parallel work run in-process -----------------------------


@pytest.fixture(scope="module")
def eight_files(ray_session, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("eight"))
    write_synth_corpus(d, 200, rows_per_file=25)
    return d


def _one_file(d, table: pa.Table) -> str:
    d.mkdir()
    pq.write_table(table, d / "part-0.parquet")
    return str(d)


ONE_FILE = pa.table({"content": [f"the the fresh{i % 7} words the" for i in range(60)],
                     "lang": ["en", "de", "fr"] * 20})


def test_only_the_many_file_read_starts_ray(eight_files, tmp_path, monkeypatch, ray_executions):
    """Within ``GATHER_BYTES`` the write path starts Ray only where it
    has parallel work: an 8-file build runs one execution (its read +
    invert, which the term shuffle drains), a one-file session and a
    compaction none.  With ``GATHER_BYTES`` = -1 all three go through
    Ray again, and the catalog rows but for their blob addresses, the
    docs rows and the postings dump equal the in-process results, after
    the one-file session and after the compaction."""
    from fulltextsearch_ray.functions import common
    from fulltextsearch_ray.pipelines.build import compact_index

    delta = _one_file(tmp_path / "delta", ONE_FILE)
    got, counts = [], []
    for budget in (common.GATHER_BYTES, -1):
        monkeypatch.setattr(common, "GATHER_BYTES", budget)
        idx = str(tmp_path / f"idx{budget}")
        steps = (lambda: build_index(eight_files, idx, text_col="content", block_cf=64),
                 lambda: build_index(delta, idx, text_col="content", block_cf=64),
                 lambda: compact_index(idx, block_cf=64))
        n, states = [], []
        for step in steps:
            ray_executions.clear()
            step()
            n.append(len(ray_executions))
            states.append((_catalog_rows(idx), _docs_rows(idx), _dump(idx)))
        assert len(load_meta(idx).segments) == 1 and load_meta(idx).num_docs == 260
        counts.append(n)
        got.append(states[1:])
    assert counts[0] == [1, 0, 0]
    assert all(counts[1]), counts[1]
    for (cat_a, docs_a, dump_a), (cat_b, docs_b, dump_b) in zip(*got):
        assert cat_a.equals(cat_b) and docs_a.equals(docs_b) and dump_a == dump_b


def test_one_file_session_stores_metadata_and_spans(tmp_path, ray_executions):
    """A one-file session inverted in-process writes the same
    ``docs_meta`` and forward files a Ray task would: the searcher
    serves its per-doc metadata and token spans, and no Ray execution
    ran."""
    src = _one_file(tmp_path / "c", ONE_FILE)
    idx = str(tmp_path / "idx")
    build_index(src, idx, text_col="content", meta_cols=("lang",), store_forward=True)
    assert ray_executions == []
    s = IndexSearcher(idx)
    assert s.num_docs == 60
    assert s.get_metadata(1) == {"lang": "en"} and s.get_metadata(60) == {"lang": "fr"}
    assert s.get_positions(3) == ([0, 4, 8, 15, 21], [3, 3, 6, 5, 3])
    assert s.bm25_topk("fresh2", k=20)["doc_id"].to_pylist() == [3, 10, 17, 24, 31, 38, 45, 52, 59]


def test_empty_one_file_corpus_commits_an_empty_segment(tmp_path, ray_executions):
    """A corpus of one empty file still commits its segment (an empty
    catalog and docs file, zero counters), in-process, and a later
    session numbers its docs from 1."""
    src = _one_file(tmp_path / "c", pa.table({"content": pa.array([], pa.string())}))
    idx = str(tmp_path / "idx")
    meta = build_index(src, idx, text_col="content")
    assert ray_executions == []
    (seg,) = meta.segments
    m = load_manifest(idx, seg)
    assert m.complete and (m.num_docs, m.num_terms, m.num_occurrences) == (0, 0, 0)
    assert meta.num_docs == 0 and meta.next_doc_id == 1
    assert IndexSearcher(idx).bm25_topk("words", k=3).num_rows == 0
    meta = build_index(_one_file(tmp_path / "more", ONE_FILE), idx, text_col="content")
    assert len(meta.segments) == 2 and meta.num_docs == 60
    assert IndexSearcher(idx).bm25_topk("fresh0", k=1)["doc_id"].to_pylist() == [1]


def test_one_file_session_keeps_the_callers_process_settings(ray_session, tmp_path, monkeypatch):
    """The in-process read + invert of a one-file session (and of the
    in-memory build over it) runs the stage, not its Ray task entry:
    the caller's Arrow thread counts stay as they were, and the worker
    heap setup (``_warm_heap``: one Arrow thread, no heap trim) never
    runs in the caller's process."""
    from fulltextsearch_ray.pipelines.memory import build_in_memory
    from fulltextsearch_ray.stages import invert

    monkeypatch.setattr(invert, "_HEAP_WARMED", False)
    src = _one_file(tmp_path / "c", ONE_FILE)
    cpus, io = pa.cpu_count(), pa.io_thread_count()
    pa.set_cpu_count(3)
    pa.set_io_thread_count(5)
    try:
        build_index(src, str(tmp_path / "idx"), text_col="content")
        assert build_in_memory(src, text_col="content").bm25_topk("fresh0", k=1).num_rows == 1
        assert (pa.cpu_count(), pa.io_thread_count()) == (3, 5)
        assert not invert._HEAP_WARMED
    finally:
        pa.set_cpu_count(cpus)
        pa.set_io_thread_count(io)


def test_one_file_runs_past_the_budget_take_the_sort(tmp_path, monkeypatch, ray_executions):
    """The one-file gate holds the file's footer bytes to
    ``GATHER_BYTES``, the shuffle the runs' own bytes: runs past the
    budget from a file within it go through the Ray sort, as a
    dataset's runs would, and give the same catalog rows but for their
    addresses, docs rows and postings dump as the in-process merge."""
    from fulltextsearch_ray.functions import common
    from fulltextsearch_ray.pipelines.build import read_invert_runs
    from fulltextsearch_ray.sources.corpus import corpus_file_items

    src = _one_file(tmp_path / "c", ONE_FILE)
    (item,) = corpus_file_items(src)
    runs, _files = read_invert_runs(src, start_id=1, text_col="content", columns=["content"])
    assert isinstance(runs, pa.Table) and item["bytes"] < runs.nbytes
    ref, idx = str(tmp_path / "ref"), str(tmp_path / "idx")
    build_index(src, ref, text_col="content")
    monkeypatch.setattr(common, "GATHER_BYTES", item["bytes"])
    ray_executions.clear()
    build_index(src, idx, text_col="content")
    assert ray_executions, "runs past the budget merged in-process"
    assert _catalog_rows(idx).equals(_catalog_rows(ref))
    assert _docs_rows(idx).equals(_docs_rows(ref))
    assert _dump(idx) == _dump(ref)
