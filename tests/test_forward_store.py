"""Forward-store (persisted token spans) tests: span correctness,
highlight parity with the re-tokenizing path, and the no-retokenize
guarantee (reference ``PersistentBuilder.cs:92-131`` forward index)."""

import numpy as np
import pyarrow as pa
import pytest

import fulltextsearch_ray.functions.highlight as hl
from fulltextsearch_ray.functions.highlight import annotate, annotate_from_positions
from fulltextsearch_ray.pipelines.build import build_index
from fulltextsearch_ray.pipelines.query import IndexSearcher
from fulltextsearch_ray.sources.corpus import write_synth_corpus
from fulltextsearch_ray.tokenizer import tokenize_with_positions


@pytest.fixture(scope="module")
def fwd_index(ray_session, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("fwdcorpus"))
    write_synth_corpus(d, 200, rows_per_file=50)
    idx = str(tmp_path_factory.mktemp("fwdidx"))
    build_index(d, idx, text_col="content", overwrite=True, store_forward=True)
    return d, idx


def test_stored_spans_match_tokenizer(fwd_index):
    import glob
    import os

    import pyarrow.parquet as pq

    corpus, idx = fwd_index
    s = IndexSearcher(idx)
    assert s.has_forward
    texts = {}
    doc_id = 1
    for f in sorted(glob.glob(os.path.join(corpus, "*.parquet"))):
        for t in pq.read_table(f, columns=["content"])["content"].to_pylist():
            texts[doc_id] = t
            doc_id += 1
    some = [1, 7, 42, 120, len(texts)]
    spans = s.get_positions_many(some)
    for d in some:
        offs, lens = spans[d]
        expect = tokenize_with_positions(texts[d])
        assert offs == [o for _t, o, _l in expect]
        assert lens == [l for _t, _o, l in expect]


def test_highlight_from_store_matches_retokenize(fwd_index):
    import glob
    import os

    import pyarrow.parquet as pq

    corpus, idx = fwd_index
    s = IndexSearcher(idx)
    term = "index0"
    hits = s.search_docs(f"WORD({term})")
    assert hits.num_rows > 0
    texts = {}
    doc_id = 1
    for f in sorted(glob.glob(os.path.join(corpus, "*.parquet"))):
        for t in pq.read_table(f, columns=["content"])["content"].to_pylist():
            texts[doc_id] = t
            doc_id += 1
    ids = [int(x) for x in hits["doc_id"].to_pylist()]
    tok_lists = hits["token_ids"].to_pylist()
    spans = s.get_positions_many(ids)
    for d, tids in zip(ids, tok_lists):
        offs, lens = spans[d]
        assert annotate_from_positions(texts[d], tids, offs, lens) == annotate(texts[d], tids)


def test_store_path_never_tokenizes(fwd_index, monkeypatch):
    corpus, idx = fwd_index
    s = IndexSearcher(idx)
    hits = s.search_docs("WORD(index0)")
    ids = [int(x) for x in hits["doc_id"].to_pylist()]
    spans = s.get_positions_many(ids)

    def boom(*a, **k):  # the forward path must not re-tokenize anything
        raise AssertionError("tokenize_with_positions called on the forward path")

    monkeypatch.setattr(hl, "tokenize_with_positions", boom)
    out = annotate_from_positions("index0 cache merge", [1], spans[ids[0]][0][:3], spans[ids[0]][1][:3])
    assert out.startswith("INDEX0")


def test_forward_missing_raises(ray_session, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("nofwd"))
    write_synth_corpus(d, 50, rows_per_file=50)
    idx = str(tmp_path_factory.mktemp("nofwdidx"))
    build_index(d, idx, text_col="content", overwrite=True)
    s = IndexSearcher(idx)
    assert not s.has_forward
    with pytest.raises(ValueError):
        s.get_positions_many([1])


def _corpus_docs(corpus) -> pa.Table:
    """(doc_id, text) of the corpus files, with their positional ids."""
    import glob
    import os

    import pyarrow.parquet as pq

    texts = [
        t for f in sorted(glob.glob(os.path.join(corpus, "*.parquet")))
        for t in pq.read_table(f, columns=["content"])["content"].to_pylist()
    ]
    return pa.table({"doc_id": pa.array(range(1, len(texts) + 1), pa.int64()),
                     "text": pa.array(texts, pa.string())})


def test_highlight_matches_distributed(fwd_index):
    """The distributed highlight pipeline (a task UDF: hits via the
    object store, spans fetched in-task) must reproduce the per-doc
    annotate() output exactly, emitting only matching docs."""
    import ray.data

    from fulltextsearch_ray.functions.highlight import highlight_matches

    corpus, idx = fwd_index
    s = IndexSearcher(idx)
    term = "index0"
    hits = s.search_docs(f"WORD({term})")
    docs_tbl = _corpus_docs(corpus)
    texts = dict(zip(docs_tbl["doc_id"].to_pylist(), docs_tbl["text"].to_pylist()))
    want = {
        int(d): annotate(texts[int(d)], tids)
        for d, tids in zip(hits["doc_id"].to_pylist(), hits["token_ids"].to_pylist())
    }
    out = highlight_matches(
        ray.data.from_arrow(docs_tbl), idx, f"WORD({term})", concurrency=2
    ).take_all()
    got = {r["doc_id"]: r["annotated"] for r in out}
    assert got == want


def test_highlight_returns_its_cpus(fwd_index):
    """The highlight stage holds no CPU once its dataset is consumed,
    with the garbage collector off and the consumed datasets still
    referenced: an idle highlight actor kept alive until the dataset
    and its executor are freed would hold a CPU the next stage waits
    for."""
    import gc
    import time

    import ray
    import ray.data

    from fulltextsearch_ray.functions.highlight import highlight_matches

    def cpus_reach(target: float) -> float:
        deadline = time.monotonic() + 30
        while (free := ray.available_resources().get("CPU", 0)) < target and time.monotonic() < deadline:
            time.sleep(0.2)
        return free

    corpus, idx = fwd_index
    docs = ray.data.from_arrow(_corpus_docs(corpus)).repartition(4)
    gc.collect()  # what earlier tests left to the collector goes first
    gc.disable()
    try:
        before = cpus_reach(ray.cluster_resources()["CPU"])
        consumed = []
        for _ in range(2):
            consumed.append(highlight_matches(docs, idx, "WORD(index0)", concurrency=2))
            assert consumed[-1].take_all()
        assert cpus_reach(before) >= before
    finally:
        gc.enable()


def test_highlight_missing_forward_row_is_descriptive(ray_session, tmp_path):
    """A hit doc with no forward-store row surfaces a descriptive
    error, not a KeyError inside the task."""
    import ray
    import ray.data

    from fulltextsearch_ray.functions.highlight import highlight_batch

    tbl = pa.table(
        {
            "doc_id": pa.array([1, 2], pa.int64()),
            "text": pa.array(["apple banana", "banana cherry"], pa.string()),
        }
    )
    idx = str(tmp_path / "idx")
    build_index(
        ray.data.from_arrow(tbl), idx, text_col="text", doc_id_col="doc_id",
        overwrite=True, store_forward=False,  # no forward rows
    )
    hits = pa.table(
        {"doc_id": pa.array([1], pa.int64()), "token_ids": pa.array([[1]], pa.list_(pa.int64()))}
    )
    with pytest.raises(ValueError, match="forward-store|store_forward"):
        highlight_batch(tbl, hits_ref=ray.put(hits), index_dir=idx)


def test_positions_doc_straddling_two_range_files(fwd_index, tmp_path):
    """A streaming compaction rewrite may split one doc's field rows
    across two adjacent range files (file A ends at doc d, file B
    starts at it).  The range lookup must read EVERY covering file,
    not just the bisect hit."""
    import pyarrow.parquet as pq

    from fulltextsearch_ray.stages.forward import FORWARD_SCHEMA

    def fwd_file(path, rows):
        t = pa.table(
            {
                "doc_id": pa.array([r[0] for r in rows], pa.uint64()),
                "field_id": pa.array([r[1] for r in rows], pa.int32()),
                "offsets": pa.array([r[2] for r in rows], pa.list_(pa.int32())),
                "lengths": pa.array([r[3] for r in rows], pa.list_(pa.int32())),
            },
            schema=FORWARD_SCHEMA,
        )
        pq.write_table(t, path)

    a = str(tmp_path / "a.parquet")
    b = str(tmp_path / "b.parquet")
    # doc 5 field 1 at the TAIL of file a; doc 5 field 2 at the HEAD of b
    fwd_file(a, [(3, 1, [0], [3]), (5, 1, [0, 4], [3, 3])])
    fwd_file(b, [(5, 2, [10], [5]), (7, 1, [1], [2])])

    _corpus, idx = fwd_index
    s = IndexSearcher(idx)
    s._fwd_ranges = {"seg": ([3, 5], [5, 7], [a, b])}

    per = s.get_positions_field_many([5])
    assert per[(5, 1)] == ([0, 4], [3, 3])  # from file a (the bisect MISS)
    assert per[(5, 2)] == ([10], [5])  # from file b (the bisect hit)
    # non-straddling docs resolve to exactly one file each
    per2 = s.get_positions_field_many([3, 7])
    assert per2[(3, 1)] == ([0], [3]) and per2[(7, 1)] == ([1], [2])

    # a wide range before a narrow one (a build's files may overlap):
    # doc 8 lies in [1, 9] only, left of the bisect hit [3, 5]
    wide = str(tmp_path / "wide.parquet")
    narrow = str(tmp_path / "narrow.parquet")
    fwd_file(wide, [(1, 1, [0], [1]), (8, 1, [2, 6], [3, 4]), (9, 1, [5], [5])])
    fwd_file(narrow, [(3, 1, [7], [7]), (5, 1, [4], [4])])
    s._fwd_ranges = {"seg": ([1, 3], [9, 5], [wide, narrow])}
    assert s.get_positions_many([8, 3]) == {8: ([2, 6], [3, 4]), 3: ([7], [7])}


def test_overlapping_forward_files_from_unsorted_batches(ray_session, tmp_path):
    """Dataset-path batches in descending doc order, each spanning the
    whole id range: every forward file overlaps every other, and each
    doc's stored spans still equal the tokenizer's, before and after a
    compaction merges two such sessions."""
    import ray.data

    from fulltextsearch_ray.pipelines.build import compact_index

    rng = np.random.default_rng(3)
    vocab = ["alpha", "beta", "gamma", "delta", "Ω-mega", "x1"]

    def session(lo, hi, k=4):
        ids = list(range(hi - 1, lo - 1, -1))  # descending
        blocks = [ids[j::k] for j in range(k)]
        texts = {d: " ".join(rng.choice(vocab, size=int(rng.integers(0, 9)))) for d in ids}
        tables = [pa.table({"doc_id": pa.array(b, pa.int64()),
                            "text": [texts[d] for d in b]}) for b in blocks]
        return ray.data.from_arrow(tables), texts, len(blocks[0])

    idx = str(tmp_path / "idx")
    texts = {}
    for lo, hi in ((1, 41), (41, 101)):
        ds, t, rows = session(lo, hi)
        texts.update(t)
        build_index(ds, idx, doc_id_col="doc_id", store_forward=True, batch_size=rows)

    def expect(d):
        toks = tokenize_with_positions(texts[d])
        return [o for _t, o, _l in toks], [l for _t, _o, l in toks]

    want = {d: expect(d) for d in texts}
    before = IndexSearcher(idx)
    assert len(before._fwd_ranges) == 2
    assert before.get_positions_many(list(texts)) == want
    compact_index(idx)
    assert IndexSearcher(idx).get_positions_many(list(texts)) == want
