"""Compound (multi-field) documents — reference AddCompound semantics:
field ids 1..N in field order (FullTextIndexBuilder.cs:57-62); phrase
adjacency never crosses fields."""

import pyarrow as pa
import pytest
import ray.data

from fulltextsearch_ray.pipelines.build import build_index
from fulltextsearch_ray.pipelines.query import IndexSearcher


@pytest.fixture(scope="module")
def multifield_index(ray_session, tmp_path_factory):
    tbl = pa.table(
        {
            "doc_id": pa.array([1, 2], pa.uint64()),
            "title": pa.array(["Hello World", "Petro search"]),
            "body": pa.array(["This is hello world", "hello search engine"]),
        }
    )
    idx = str(tmp_path_factory.mktemp("mfidx"))
    build_index(
        ray.data.from_arrow(tbl), idx,
        text_cols=["title", "body"], doc_id_col="doc_id", overwrite=True,
    )
    return IndexSearcher(idx)


def test_field_ids_assigned_in_order(multifield_index):
    s = multifield_index
    assert s.search_to_string("WORD(hello)") == "{[1,1,1]}, {[1,2,3]}, {[2,2,1]}"
    assert s.search_to_string("WORD(search)") == "{[2,1,2]}, {[2,2,2]}"


def test_phrase_does_not_cross_fields(multifield_index):
    s = multifield_index
    # "hello world" appears in doc1 title (1,2) and doc1 body (3,4)
    assert (
        s.search_to_string("SEQ(WORD(hello),WORD(world))")
        == "{[1,1,1], [1,1,2]}, {[1,2,3], [1,2,4]}"
    )
    # "world this" spans field boundary (title end → body start): no match
    assert s.search_to_string("SEQ(WORD(world),WORD(this))") == ""


def test_doc_len_sums_fields(multifield_index):
    s = multifield_index
    # doc1: 2 title + 4 body = 6; doc2: 2 + 3 = 5
    import numpy as np

    assert s._doc_lens(np.array([1, 2], dtype=np.uint64)).tolist() == [6.0, 5.0]


def test_bm25_over_fields(multifield_index):
    top = multifield_index.bm25_topk(["hello"], k=2)
    # doc1 has tf=2 (both fields), doc2 tf=1 → doc1 first
    assert top["doc_id"].to_pylist()[0] == 1


@pytest.fixture(scope="module")
def multifield_fwd_index(ray_session, tmp_path_factory):
    """Multi-field corpus indexed WITH the per-field forward store
    (round-2 VERDICT #3: reference per-(doc, field) PosIndex)."""
    tbl = pa.table(
        {
            "doc_id": pa.array([1, 2], pa.uint64()),
            "title": pa.array(["Hello World", "Petro search"]),
            "body": pa.array(["This is hello world", "hello search engine"]),
        }
    )
    idx = str(tmp_path_factory.mktemp("mf_fwd_idx"))
    build_index(
        ray.data.from_arrow(tbl), idx,
        text_cols=["title", "body"], doc_id_col="doc_id", overwrite=True, store_forward=True,
    )
    return IndexSearcher(idx), tbl


def test_multifield_forward_spans(multifield_fwd_index):
    from fulltextsearch_ray.tokenizer import tokenize_with_positions

    s, tbl = multifield_fwd_index
    assert s.has_forward
    spans = s.get_positions_field_many([1, 2])
    for row, did in enumerate(tbl["doc_id"].to_pylist()):
        for fid, col in enumerate(["title", "body"], start=1):
            offs, lens = spans[(int(did), fid)]
            expect = tokenize_with_positions(tbl[col][row].as_py())
            assert offs == [o for _t, o, _l in expect], (did, fid)
            assert lens == [l for _t, _o, l in expect], (did, fid)
    # default-field convenience returns field 1 (title) spans
    assert s.get_positions_many([1])[1] == spans[(1, 1)]


def test_multifield_store_served_highlight(multifield_fwd_index):
    """Highlight each field from the STORE (no tokenizer run) and
    check against the re-tokenizing annotate() on that field's text."""
    from fulltextsearch_ray.functions.highlight import (
        annotate,
        annotate_from_positions,
    )

    s, tbl = multifield_fwd_index
    m = s.evaluate("WORD(hello)")
    spans = s.get_positions_field_many(set(int(d) for d in m.docs))
    texts = {
        (int(d), fid): tbl[col][row].as_py()
        for row, d in enumerate(tbl["doc_id"].to_pylist())
        for fid, col in enumerate(["title", "body"], start=1)
    }
    # group hits by (doc, field)
    by_df: dict = {}
    for d, f, t in zip(m.docs, m.fields, m.tokens):
        by_df.setdefault((int(d), int(f)), []).append(int(t))
    assert by_df  # WORD(hello) matches in both fields
    for (d, f), tids in by_df.items():
        offs, lens = spans[(d, f)]
        got = annotate_from_positions(texts[(d, f)], tids, offs, lens)
        want = annotate(texts[(d, f)], tids)
        assert got == want and got != texts[(d, f)], (d, f)


def test_pruned_bm25_multifield_bound_scales_by_fields(ray_session):
    """Scoring sums tf across fields, so the MaxScore tf bound must be
    max_tf x num_fields.  This corpus is tuned so the UNSCALED bound
    provably mis-prunes (asserted via a forced num_fields=1): the
    victim doc holds the query term tf=5 in EACH of two fields (10
    total), beating the per-entry bound; the fixed bound keeps it."""
    import ray.data

    from fulltextsearch_ray.pipelines.memory import build_in_memory

    rows = [
        {"doc_id": 1, "a": " ".join(["alpha"] * 5), "b": " ".join(["alpha"] * 5)},
        {"doc_id": 2, "a": " ".join(["beta"] * 8), "b": ""},
        {"doc_id": 3, "a": " ".join(["beta"] * 3), "b": ""},
        {"doc_id": 4, "a": " ".join(["alpha"] * 5), "b": ""},  # df=2, max_tf=5
    ]
    for i in range(5, 61):  # long fillers push avgdl >> victim dl
        rows.append({"doc_id": i, "a": " ".join(f"pad{i}x{j}" for j in range(200)), "b": ""})
    tbl = pa.table({k: [r[k] for r in rows] for k in ("doc_id", "a", "b")})
    s = build_in_memory(
        ray.data.from_arrow(tbl), text_col="a", text_cols=["a", "b"], doc_id_col="doc_id"
    )
    assert s.meta.num_fields == 2
    ex = s.bm25_topk(["alpha", "beta"], k=1)
    pr = s.bm25_topk_pruned(["alpha", "beta"], k=1)
    assert pr["doc_id"].to_pylist() == ex["doc_id"].to_pylist() == [1]
    assert pr["score"].to_pylist() == ex["score"].to_pylist()
    # sharpness: the pre-fix bound (num_fields=1) mis-prunes THIS corpus
    s.meta.num_fields = 1
    wrong = s.bm25_topk_pruned(["alpha", "beta"], k=1)
    assert wrong["doc_id"].to_pylist() == [2], "corpus no longer trips the unscaled bound"


def test_highlight_matches_multifield_only_field1_tokens(multifield_fwd_index, tmp_path):
    """hello appears in doc 1 at title token 1 AND body tokens 3-4;
    highlight over the TITLE column must uppercase only the title's own
    match (the merged-field search_docs token list used to apply body
    ordinals to the title text)."""
    from fulltextsearch_ray.functions.highlight import highlight_matches

    s, tbl = multifield_fwd_index
    idx = s.index_dir
    # field-restricted hit shape
    hits1 = s.search_field_tokens("WORD(hello)", field=1)
    assert hits1["doc_id"].to_pylist() == [1]  # title match only in doc 1
    assert hits1["token_ids"].to_pylist() == [[1]]
    hits2 = s.search_field_tokens("WORD(hello)", field=2)
    assert hits2["doc_id"].to_pylist() == [1, 2]  # body matches
    # end-to-end: annotate the title column
    docs_ds = ray.data.from_arrow(
        pa.table({"doc_id": pa.array([1, 2], pa.int64()), "title": tbl["title"]})
    )
    out = (
        highlight_matches(docs_ds, idx, "WORD(hello)", text_col="title")
        .to_pandas()
        .sort_values("doc_id")
    )
    # only doc 1 (title match) is annotated, and only its own token
    assert out.doc_id.tolist() == [1]
    assert out.annotated.tolist() == ["HELLO World"]


def test_meta_without_num_fields_refused_then_compacted_prunes_exactly(
    ray_session, tmp_path
):
    """A meta.json written BEFORE num_fields existed may describe a
    multi-field index; loading it as num_fields=1 would re-introduce
    the unscaled-bound mis-prune.  The searcher refuses such a header
    (format 1) naming compact_index, which recovers the field count
    from the posting rows — then pruning is exact on the tuned
    mis-prune corpus."""
    import json
    import os

    from fulltextsearch_ray.pipelines.build import compact_index

    rows = [
        {"doc_id": 1, "a": " ".join(["alpha"] * 5), "b": " ".join(["alpha"] * 5)},
        {"doc_id": 2, "a": " ".join(["beta"] * 8), "b": ""},
        {"doc_id": 3, "a": " ".join(["beta"] * 3), "b": ""},
        {"doc_id": 4, "a": " ".join(["alpha"] * 5), "b": ""},
    ]
    for i in range(5, 61):
        rows.append({"doc_id": i, "a": " ".join(f"pad{i}x{j}" for j in range(200)), "b": ""})
    tbl = pa.table({k: [r[k] for r in rows] for k in ("doc_id", "a", "b")})
    idx = str(tmp_path / "legacyidx")
    build_index(
        ray.data.from_arrow(tbl), idx,
        text_cols=["a", "b"], doc_id_col="doc_id", overwrite=True,
    )
    # simulate the older header: format 1, no num_fields key
    meta_path = os.path.join(idx, "meta.json")
    with open(meta_path) as f:
        d = json.load(f)
    assert d.pop("num_fields") == 2
    with open(meta_path, "w") as f:
        json.dump({**d, "version": 1}, f)
    with pytest.raises(ValueError, match="compact_index"):
        IndexSearcher(idx)
    assert compact_index(idx).num_fields == 2
    s = IndexSearcher(idx)
    assert s.meta.num_fields == 2  # recovered, NOT assumed single-field
    ex = s.bm25_topk(["alpha", "beta"], k=1)
    pr = s.bm25_topk_pruned(["alpha", "beta"], k=1)
    assert pr["doc_id"].to_pylist() == ex["doc_id"].to_pylist() == [1]
    assert pr["score"].to_pylist() == ex["score"].to_pylist()
