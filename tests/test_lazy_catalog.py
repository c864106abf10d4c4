"""Lazy (row-group-paged) catalog + doc-length mode: forcing the
budgets to 0 must leave every query result identical to the eager
searcher while holding no full-catalog arrays in memory.  Also the FST
sidecar that lazy-mode WILD/EDIT expansion loads on first use (a stale
one is ignored), and the tree-reduced ``top_terms``."""

import logging
import os

import numpy as np
import pyarrow as pa
import pytest

from fulltextsearch_ray.pipelines.build import build_index, compact_index
from fulltextsearch_ray.pipelines.query import IndexSearcher
from fulltextsearch_ray.sources.corpus import write_synth_corpus


@pytest.fixture(scope="module")
def pair(ray_session, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("lazycorpus"))
    write_synth_corpus(d, 250, rows_per_file=50)
    idx = str(tmp_path_factory.mktemp("lazyidx"))
    build_index(d, idx, text_col="content", overwrite=True)
    eager = IndexSearcher(idx)
    lazy = IndexSearcher(idx, catalog_budget_rows=0, doclen_budget_rows=0)
    return eager, lazy


def test_lazy_holds_no_full_arrays(pair):
    _eager, lazy = pair
    assert lazy.terms is None and lazy._terms_np is None
    assert lazy._dl_docs is None
    assert lazy._lazy_cats is not None and lazy._lazy_lens is not None


def test_lazy_term_stats_match(pair):
    eager, lazy = pair
    terms = eager._terms_np[:: max(len(eager._terms_np) // 50, 1)].tolist() + ["absent_zz"]
    for t in terms:
        assert lazy.term_stats(t) == eager.term_stats(t), t
        assert lazy._term_upper_bound(t) == eager._term_upper_bound(t), t


def test_lazy_search_results_match(pair):
    eager, lazy = pair
    for q in [
        "WORD(index0)", "WILD(cach*)", "WILD(*0)", "EDIT(cache1,1)",
        "OR(WORD(def),WORD(class))", "SEQ(WORD(def),WORD(class))",
        "AND(WORD(index0),WORD(def))",
    ]:
        assert lazy.search_to_string(q) == eager.search_to_string(q), q
    assert lazy.lookup("WILD(ind*)") == eager.lookup("WILD(ind*)")
    assert lazy.lookup("EDIT(merge1,1)") == eager.lookup("EDIT(merge1,1)")


def test_lazy_bm25_matches(pair):
    eager, lazy = pair
    for q in ["index builder", "def class return", "posting merge block"]:
        assert lazy.bm25_topk(q, k=10).equals(eager.bm25_topk(q, k=10)), q
        terms = q.split()
        assert lazy.bm25_topk_pruned(terms, k=10).equals(
            eager.bm25_topk_pruned(terms, k=10)
        ), q


def test_lazy_doc_lens_match(pair):
    eager, lazy = pair
    ids = eager._dl_docs[:: max(len(eager._dl_docs) // 40, 1)]
    np.testing.assert_array_equal(lazy._doc_lens(ids), eager._doc_lens(ids))


def test_lazy_term_stats_dataset_streams(pair):
    """Scale-mode term-statistics surface (round-2 VERDICT #4): a
    lazy-mode searcher (no ``terms`` array at all) must enumerate the
    whole vocabulary via the catalog DATASET, matching the eager
    searcher's arrays exactly; top_terms must agree with a driver
    lexsort of those arrays."""
    eager, lazy = pair
    assert lazy.terms is None  # nothing eager to lean on
    rows = lazy.term_stats_dataset().take_all()
    got = {r["term"]: (r["df"], r["cf"]) for r in rows}
    want = {
        t: (int(eager._df_docs[i]), int(eager._cf[i]))
        for i, t in enumerate(eager._terms_np)
    }
    assert got == want
    top = lazy.top_terms(10)
    cf = np.asarray(eager._cf)
    order = np.lexsort((eager._terms_np, -cf))[:10]
    assert top["term"].to_pylist() == [eager._terms_np[i] for i in order]
    assert top["cf"].to_pylist() == [int(cf[i]) for i in order]


def test_covering_handles_overlapping_runs(tmp_path):
    """Regression: runs from different segments can overlap arbitrarily
    (multi-session custom doc ids); a NARROW run sorted after a WIDE
    one must not end the stab walk-back early."""
    import pyarrow.parquet as pq

    from fulltextsearch_ray.pipelines.build import _scan_table_stats
    from fulltextsearch_ray.pipelines.query import LazyRowGroupTable

    wide = pa.table({"doc_id": pa.array([0, 700, 1000], pa.uint64()),
                     "doc_len": pa.array([1, 2, 3], pa.int64())})
    narrow = pa.table({"doc_id": pa.array([500, 600], pa.uint64()),
                       "doc_len": pa.array([4, 5], pa.int64())})
    pq.write_table(wide, str(tmp_path / "wide.parquet"))
    pq.write_table(narrow, str(tmp_path / "narrow.parquet"))
    stats = _scan_table_stats(str(tmp_path), str(tmp_path))
    t = LazyRowGroupTable(
        {str(tmp_path / rel): info["row_groups"] for rel, info in stats.items()},
        ["doc_id", "doc_len"],
    )
    # runs sorted by min: [(0,1000), (500,600)].  Key 700 is covered
    # ONLY by the wide run; the old walk-back stopped at the narrow
    # run's max (600 < 700) and returned nothing.
    cov = t.covering(700)
    assert [t.runs[i][:2] for i in cov] == [(0, 1000)]
    assert t.covering(550) and len(t.covering(550)) == 2
    assert t.range_indices(650, 800) == [0]


def test_lazy_doclens_interleaved_segments(ray_session, tmp_path):
    """BM25 in paged-doclen mode over two sessions whose CUSTOM doc-id
    ranges interleave (one wide, one narrow inside it) must match the
    eager searcher exactly — the old per-group lookup could read a
    neighbor's doc_len."""
    import pyarrow as pa
    import ray.data

    from fulltextsearch_ray.pipelines.build import build_index
    from fulltextsearch_ray.pipelines.query import IndexSearcher

    words = ["alpha", "beta", "gamma", "delta", "epsilon"]
    rows_a = {"doc_id": [], "text": []}
    for i in range(40):  # wide session: ids 0..3900 step 100
        rows_a["doc_id"].append(i * 100)
        rows_a["text"].append(" ".join(words[(i + j) % 5] for j in range(1 + i % 7)))
    rows_b = {"doc_id": [], "text": []}
    for i in range(30):  # narrow session inside the wide range
        rows_b["doc_id"].append(1001 + i)
        rows_b["text"].append(" ".join(words[(i + j) % 5] for j in range(1 + i % 5)))
    idx = str(tmp_path / "idx")
    for rows in (rows_a, rows_b):
        ds = ray.data.from_arrow(pa.table({"doc_id": pa.array(rows["doc_id"], pa.uint64()),
                                           "text": pa.array(rows["text"])}))
        build_index(ds, idx, text_col="text", doc_id_col="doc_id")
    eager = IndexSearcher(idx)
    paged = IndexSearcher(idx, doclen_budget_rows=0)
    for q in ("alpha", "beta gamma", "delta epsilon alpha"):
        assert eager.bm25_topk(q, k=10).equals(paged.bm25_topk(q, k=10)), q


def test_stale_fst_fallback_logged_once_per_searcher(ray_session, tmp_path, caplog):
    """After the library compact_index the FST sidecar is stale: a lazy
    searcher says once that WILD/EDIT falls back to paged scans."""
    from fulltextsearch_ray.pipelines.build import compact_index
    from fulltextsearch_ray.state.fst_store import build_fst_sidecar

    d = str(tmp_path / "corpus")
    write_synth_corpus(d, 120, rows_per_file=40)
    idx = str(tmp_path / "idx")
    build_index(d, idx, text_col="content", overwrite=True)
    build_index(d, idx, text_col="content")  # second segment
    build_fst_sidecar(idx)
    logger = "fulltextsearch_ray.pipelines.query"

    def fallback_records():
        return [r for r in caplog.records if r.name == logger and "paged catalog" in r.getMessage()]

    fresh = IndexSearcher(idx, catalog_budget_rows=0)
    with caplog.at_level(logging.WARNING, logger=logger):
        assert fresh.lookup("EDIT(index,1)")
    assert fallback_records() == []

    compact_index(idx)
    for _ in range(2):  # two searchers, each logging exactly once
        lazy = IndexSearcher(idx, catalog_budget_rows=0)
        with caplog.at_level(logging.WARNING, logger=logger):
            assert lazy.lookup("EDIT(index,1)") == fresh.lookup("EDIT(index,1)")
            assert lazy.lookup("WILD(ind*)") == fresh.lookup("WILD(ind*)")
            lazy.lookup("EDIT(class,1)")
    recs = fallback_records()
    assert len(recs) == 2
    assert idx in recs[0].getMessage()
    # the eager dictionary never pages, so it never warns
    with caplog.at_level(logging.WARNING, logger=logger):
        IndexSearcher(idx).lookup("EDIT(index,1)")
    assert len(fallback_records()) == 2


@pytest.fixture(scope="module")
def multi_file_index(ray_session, tmp_path_factory):
    """A segment whose catalog is one file per sort partition: eight
    corpus files give eight invert blocks into the term sort, forced
    (``common.GATHER_BYTES`` = -1) for runs this small."""
    from fulltextsearch_ray.functions import common

    d = str(tmp_path_factory.mktemp("multifilecorpus"))
    write_synth_corpus(d, 400, rows_per_file=50)
    idx = str(tmp_path_factory.mktemp("multifileidx"))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(common, "GATHER_BYTES", -1)
        build_index(d, idx, text_col="content", overwrite=True)
    return idx


def test_multi_file_catalog_searchers_agree(multi_file_index):
    """Catalog files are named by a hash of their rows, so their name
    order is not their term order; the eager, lazy and FST searchers
    read them as one term-sorted catalog all the same."""
    import glob
    import os

    import pyarrow.parquet as pq

    from fulltextsearch_ray.state.index import load_manifest, load_meta, segment_dir

    idx = multi_file_index
    (seg,) = load_meta(idx).segments
    files = sorted(glob.glob(os.path.join(segment_dir(idx, seg), "catalog", "*.parquet")))
    firsts = [pq.read_table(f, columns=["term"])["term"][0].as_py() for f in files]
    assert len(files) >= 3 and firsts != sorted(firsts)

    eager = IndexSearcher(idx)
    assert len(eager._terms_np) == load_manifest(idx, seg).num_terms
    assert list(eager._terms_np) == sorted(set(eager._terms_np))
    others = [IndexSearcher(idx, catalog_budget_rows=0), IndexSearcher(idx, term_dict="fst")]
    assert others[0]._lazy_cats is not None
    terms = eager._terms_np[:: max(len(eager._terms_np) // 60, 1)].tolist() + ["absent_zz"]
    for s in others:
        for q in ["index builder", "def class return", "posting merge block"]:
            assert s.bm25_topk(q, k=10).equals(eager.bm25_topk(q, k=10)), q
        for p in ["WILD(ind*)", "WILD(*0)", "WILD(cach*)", "EDIT(merge1,1)", "EDIT(cache1,2)"]:
            assert s.lookup(p) == eager.lookup(p), p
        assert s.top_terms(15).equals(eager.top_terms(15))
        for t in terms:
            assert s.term_stats(t) == eager.term_stats(t), t


def test_empty_corpus_index_opens(ray_session, tmp_path):
    """A build without documents writes no catalog rows, no blob and
    an empty docs file; every kind of searcher still opens it, with no
    terms, and it compacts with a later session."""
    import pyarrow as pa
    import ray.data

    idx = str(tmp_path / "empty")
    empty = pa.table({"doc_id": pa.array([], pa.uint64()), "text": pa.array([], pa.string())})
    meta = build_index(ray.data.from_arrow(empty), idx, doc_id_col="doc_id", overwrite=True)
    assert meta.num_docs == 0
    for kw in ({}, {"catalog_budget_rows": 0}, {"term_dict": "fst"}):
        s = IndexSearcher(idx, **kw)
        assert s.term_stats("anything") == (0, 0)
        assert s.lookup("WILD(a*)") == [] and s.lookup("EDIT(abc,1)") == []
        assert s.top_terms(5).num_rows == 0
        assert s.bm25_topk("anything", k=5).num_rows == 0
    assert len(IndexSearcher(idx).terms) == 0
    one = pa.table({"doc_id": pa.array([7], pa.uint64()), "text": pa.array(["lone word"])})
    build_index(ray.data.from_arrow(one), idx, doc_id_col="doc_id")
    meta = compact_index(idx)
    assert len(meta.segments) == 1 and meta.num_docs == 1
    assert IndexSearcher(idx).bm25_topk("lone", k=5)["doc_id"].to_pylist() == [7]


@pytest.mark.parametrize("gather_bytes", [None, -1], ids=["in-process", "shuffle"])
def test_term_stats_dataset_sums_segments(ray_session, tmp_path, monkeypatch, gather_bytes):
    """Across segments, term_stats_dataset emits each term once with its
    totals, on both paths of the group stage, and top_terms agrees."""
    import pyarrow as pa
    import ray.data

    from fulltextsearch_ray.functions import common

    if gather_bytes is not None:
        monkeypatch.setattr(common, "GATHER_BYTES", gather_bytes)
    idx = str(tmp_path / "idx")
    sessions = [(1, ["red green", "green blue blue"]), (3, ["blue red", "violet"])]
    for start, texts in sessions:
        tbl = pa.table({"doc_id": pa.array(range(start, start + len(texts)), pa.uint64()), "text": texts})
        build_index(ray.data.from_arrow(tbl), idx, doc_id_col="doc_id", overwrite=start == 1)
    s = IndexSearcher(idx)
    rows = s.term_stats_dataset().take_all()
    assert sorted((r["term"], r["df"], r["cf"]) for r in rows) == [
        ("blue", 2, 3), ("green", 2, 2), ("red", 2, 2), ("violet", 1, 1)
    ]
    assert s.top_terms(2).to_pylist() == [
        {"term": "blue", "df": 2, "cf": 3}, {"term": "green", "df": 2, "cf": 2}
    ]


# -- the FST sidecar in lazy mode, tree-reduced top_terms -------------------


DOCS = [
    "the quick brown fox jumps over the lazy dog",
    "pack my box with five dozen liquor jugs",
    "how vexingly quick daft zebras jump",
    "the five boxing wizards jump quickly",
    "sphinx of black quartz judge my vow",
    "quick zephyrs blow vexing daft jim",
] * 5


@pytest.fixture(scope="module")
def built_index(ray_session, tmp_path_factory):
    import ray.data

    from fulltextsearch_ray.pipelines.build import build_index

    idx = str(tmp_path_factory.mktemp("pangrams") / "idx")
    ds = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(range(1, len(DOCS) + 1), pa.int64()),
                "text": pa.array(DOCS, pa.string()),
            }
        )
    )
    build_index(ds, idx, text_col="text", doc_id_col="doc_id", overwrite=True)
    return idx


def test_lazy_edit_uses_fst_sidecar(built_index):
    """With a fresh sidecar, a lazy-mode EDIT expansion must not page
    the whole catalog; results identical to the paged scan."""
    from fulltextsearch_ray.pipelines.query import IndexSearcher
    from fulltextsearch_ray.state.fst_store import build_fst_sidecar

    # paged scan baseline (no sidecar yet)
    plain = IndexSearcher(built_index, catalog_budget_rows=0)
    assert plain._auto_fst is None
    base = plain.lookup("EDIT(quick,1)")
    loads_full_scan = sum(c.loads for c in plain._lazy_cats)
    assert loads_full_scan >= sum(len(c) for c in plain._lazy_cats)

    build_fst_sidecar(built_index)
    s = IndexSearcher(built_index, catalog_budget_rows=0)
    # the sidecar loads LAZILY, on the first pattern expansion — cold
    # start never reads the O(vocabulary) image
    assert s._auto_fst is None and s._auto_fst_pending
    got = s.lookup("EDIT(quick,1)")
    assert s._auto_fst is not None and not s._auto_fst_pending
    assert got == base and got  # non-trivial match set
    assert sum(c.loads for c in s._lazy_cats) == 0  # no catalog paging
    # WILD goes through the sidecar too
    assert s.lookup("WILD(qui*)") == plain.lookup("WILD(qui*)")
    # occurrence-level query parity (posting fetches still page, but
    # only for the matched terms)
    assert s.search_to_string("EDIT(quick,1)") == plain.search_to_string("EDIT(quick,1)")
    # a pure WORD/BM25 workload on a fresh searcher never loads the image
    w = IndexSearcher(built_index, catalog_budget_rows=0)
    assert w.bm25_topk("quick fox", k=3)
    assert w.lookup("WORD(quick)")
    assert w._auto_fst is None and w._auto_fst_pending


def test_stale_fst_sidecar_falls_back(built_index, tmp_path):
    """A sidecar built over different segments is ignored."""
    import json
    import shutil

    from fulltextsearch_ray.pipelines.query import IndexSearcher
    from fulltextsearch_ray.state.fst_store import build_fst_sidecar, fst_dir

    idx = str(tmp_path / "stale")
    shutil.copytree(built_index, idx)
    build_fst_sidecar(idx)
    meta_path = os.path.join(fst_dir(idx), "fst.json")
    with open(meta_path) as f:
        info = json.load(f)
    info["segments"] = ["someother-segment"]
    with open(meta_path, "w") as f:
        json.dump(info, f)
    s = IndexSearcher(idx, catalog_budget_rows=0)
    assert s._auto_fst is None
    assert s.lookup("EDIT(quick,1)")  # paged fallback still works


def test_top_terms_tree_reduce_bounded_driver(built_index):
    from fulltextsearch_ray.functions.similarity import _REDUCE_FANIN
    from fulltextsearch_ray.pipelines.query import IndexSearcher

    s = IndexSearcher(built_index)
    stats: dict = {}
    top = s.top_terms(5, stats=stats)
    assert top.num_rows == 5
    assert stats["driver_rows"] <= _REDUCE_FANIN * 5
    # parity with a full driver-side sort over the eager catalog
    cf = s._cf
    order = np.lexsort((s._terms_np, -cf))[:5]
    expect = [str(t) for t in s._terms_np[order]]
    assert top["term"].to_pylist() == expect


def test_sharded_fst_sequential_writes_at_dispatch(tmp_path):
    """Non-Ray sharded build: shard files exist on disk as soon as the
    meta is written, and the loaded union matches the vocabulary (the
    advice item: the driver must not hold every shard image)."""
    import ray

    from fulltextsearch_ray.pipelines.build import build_index
    from fulltextsearch_ray.state import fst_store

    # run sequentially even inside the test Ray session
    idx = str(tmp_path / "idx")
    import ray.data

    ds = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(range(1, 7), pa.int64()),
                "text": pa.array(DOCS[:6], pa.string()),
            }
        )
    )
    build_index(ds, idx, text_col="text", doc_id_col="doc_id", overwrite=True)

    orig = ray.is_initialized

    try:
        ray.is_initialized = lambda: False  # force the sequential path
        info = fst_store.build_fst_sidecar(idx, shard_terms=5)
    finally:
        ray.is_initialized = orig
    assert len(info["shards"]) >= 2
    from fulltextsearch_ray.state.index import load_meta

    fst = fst_store.load_fst_sidecar(idx, list(load_meta(idx).segments))
    terms = [t for t, _ in fst.items()]
    expect = sorted(set(fst_store.iter_index_terms(idx, list(load_meta(idx).segments))))
    assert terms == expect
