"""BM25 scoring: one df definition (unique docs) across the exhaustive
and MaxScore-pruned paths, pruned == exhaustive under negative idf
(forged, and as a mid-entry block split gives it), mid-entry block
splits and multi-field documents, the manifest ``block_cf`` gate on the
tight MaxScore bound, and binary-searched term lookups agreeing with
the scan kernels."""

import json
import os

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from fulltextsearch_ray.matchers import expand_pattern
from fulltextsearch_ray.parser import parse_query
from fulltextsearch_ray.pipelines.build import build_index
from fulltextsearch_ray.pipelines.query import IndexSearcher


@pytest.fixture(scope="module")
def multifield_index(ray_session, tmp_path_factory):
    # doc 1 has 'shared' in BOTH fields (the df double-count trap);
    # several docs pad the corpus so idf ordering matters.
    rows = {
        "doc_id": list(range(1, 9)),
        "t1": [
            "shared alpha beta", "alpha beta gamma", "beta gamma delta",
            "shared delta", "epsilon zeta", "eta theta", "iota kappa", "alpha",
        ],
        "t2": [
            "shared gamma", "delta epsilon", "zeta eta", "theta iota",
            "kappa alpha", "beta gamma", "shared", "gamma delta",
        ],
    }
    idx = str(tmp_path_factory.mktemp("mfidx"))
    build_index(
        ray.data.from_arrow(pa.table(rows)), idx,
        text_cols=["t1", "t2"], doc_id_col="doc_id", overwrite=True,
    )
    return idx


def test_multifield_df_is_unique_docs(multifield_index):
    s = IndexSearcher(multifield_index)
    # 'shared' occurs in docs 1 (both fields), 4, 7 → df must be 3, not 4
    df, cf = s.term_stats("shared")
    assert df == 3
    assert cf == 4


def test_pruned_bm25_exact_on_multifield(multifield_index):
    s = IndexSearcher(multifield_index)
    terms = ["shared", "alpha", "gamma"]
    exact = s.bm25_topk(terms, k=5)
    pruned = s.bm25_topk_pruned(terms, k=5)
    assert exact["doc_id"].to_pylist() == pruned["doc_id"].to_pylist()
    np.testing.assert_allclose(
        exact["score"].to_numpy(), pruned["score"].to_numpy(), rtol=0, atol=0
    )


def test_binary_search_lookup_parity(multifield_index):
    s = IndexSearcher(multifield_index)
    # WORD / WILD / EDIT expansion with the cached numpy view must equal
    # the scan-kernel path
    for pat in ["WORD(alpha)", "WORD(absent)", "WILD(a*)", "WILD(*ta)", "EDIT(gama,1)"]:
        ast = parse_query(pat)
        assert expand_pattern(ast, s.terms, s._terms_np) == expand_pattern(ast, s.terms)
    assert s.term_stats("absent") == (0, 0)
    assert s._term_index("alpha") >= 0
    assert s._term_index("zzzz") == -1


# -- MaxScore soundness: negative idf, mid-entry splits, block_cf gate --------


def _mk_docs(texts):
    return ray.data.from_arrow(
        pa.table({"doc_id": pa.array(range(1, len(texts) + 1), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    )


def _assert_topk_parity(exact, pruned, ctx):
    """Same top-k score multiset within ULP tolerance (the pruned path
    accumulates per-term, so summation ORDER differs by design; a
    wrongly-pruned doc shows as a beyond-ULP smaller kth score)."""
    es = sorted(exact["score"].to_pylist())
    ps = sorted(pruned["score"].to_pylist())
    assert len(es) == len(ps), ctx
    np.testing.assert_allclose(ps, es, rtol=0, atol=1e-9, err_msg=str(ctx))


def test_pruned_bm25_negative_idf_term_parity(ray_session):
    """A term whose (forged) df exceeds N has idf < 0 and a NEGATIVE
    upper bound; summing it raw into the prune budget under-states what
    an unseen doc can score.  Pruned top-k must equal exhaustive top-k
    for every query mixing such a term."""
    from fulltextsearch_ray.pipelines.memory import build_in_memory

    rng = np.random.default_rng(3)
    vocab = [f"t{i}" for i in range(15)]
    texts = [" ".join(rng.choice(vocab, size=int(rng.integers(3, 30)))) for _ in range(60)]
    s = build_in_memory(_mk_docs(texts), text_col="text", doc_id_col="doc_id")
    # forge df > N for the most common term
    i = int(np.argmax(s._df_docs))
    bad_term = str(s._terms_np[i])
    s._df_docs = s._df_docs.copy()  # the Arrow-backed view is read-only
    s._df_docs[i] = 5 * s.meta.num_docs
    assert s._term_upper_bound(bad_term) < 0  # the scenario is real
    for q in range(30):
        terms = [bad_term] + list(rng.choice(vocab, size=3, replace=False))
        for k in (1, 3, 10):
            _assert_topk_parity(s.bm25_topk(terms, k=k), s.bm25_topk_pruned(terms, k=k), (terms, k))


def test_pruned_bm25_negative_idf_from_split_entry(ray_session):
    """Unforged negative idf: a doc split mid-entry across posting
    blocks counts in each block's n_docs, so one doc of 20 'hot' at
    block_cf=8 gives 'hot' df_docs 3 with N = 1 — idf < 0, so the
    prune's negative floor is reachable in this format.  Pruned ==
    exhaustive."""
    from fulltextsearch_ray.pipelines.memory import build_in_memory

    s = build_in_memory(
        _mk_docs(["hot " * 20 + "rare"]), text_col="text", doc_id_col="doc_id", block_cf=8
    )
    assert s.meta.num_docs == 1 and s.term_stats("hot") == (3, 20)
    assert s._term_floor("hot") < 0
    for terms in (["hot", "rare"], ["hot"], ["rare", "hot", "hot"]):
        exact, pruned = s.bm25_topk(terms, k=1), s.bm25_topk_pruned(terms, k=1)
        assert exact["score"][0].as_py() < 0 or terms[0] == "rare"
        _assert_topk_parity(exact, pruned, terms)


def test_pruned_bm25_mid_entry_split_parity(ray_session):
    """One doc's tf for a term exceeds block_cf → the entry splits
    across blocks and catalog max_tf under-states the doc's summed tf.
    The bound must detect the possibility (max_tf > block_cf/2) and
    fall back to the supremum; pruned == exhaustive."""
    from fulltextsearch_ray.pipelines.memory import build_in_memory

    texts = [
        "hot " * 100 + "rare",          # tf(hot)=100 >> block_cf
        "hot cold warm mild rare",
        "cold warm mild tepid",
        "warm mild tepid rare",
    ]
    s = build_in_memory(_mk_docs(texts), text_col="text", doc_id_col="doc_id", block_cf=8)
    assert s._min_block_cf == 8
    for terms in (["hot", "rare"], ["hot", "cold", "rare"], ["hot"], ["rare", "mild"]):
        for k in (1, 2, 4):
            _assert_topk_parity(s.bm25_topk(terms, k=k), s.bm25_topk_pruned(terms, k=k), terms)


def test_manifest_block_cf_gates_tight_bound(ray_session, tmp_path):
    """Fresh builds persist block_cf, which gates the tight bound: a
    term with max_tf ≤ block_cf/2 gets idf·f(max_tf·num_fields), below
    the tf→∞ supremum idf·(K1+1).  A manifest without block_cf (an
    older index, format 1) is refused naming compact_index, which
    writes it back — same bound, same results."""
    from fulltextsearch_ray.pipelines.build import compact_index
    from fulltextsearch_ray.pipelines.query import K1

    idx = str(tmp_path / "idx")
    build_index(_mk_docs(["apple pie", "banana split"]), idx,
                text_col="text", doc_id_col="doc_id")
    s = IndexSearcher(idx)
    assert s._min_block_cf > 0
    tight = s._term_upper_bound("apple")
    df = s.term_stats("apple")[0]
    N = s.meta.num_docs
    assert tight < np.log((N - df + 0.5) / (df + 0.5) + 1.0) * (K1 + 1.0)
    want = s.bm25_topk(["apple", "pie"], k=2)
    # older manifest: strip the block_cf key, header of format 1
    (seg,) = s.segments
    man_path = os.path.join(idx, "segments", seg, "manifest.json")
    m = json.loads(open(man_path).read())
    del m["block_cf"]
    with open(man_path, "w") as f:
        json.dump(m, f)
    meta_path = os.path.join(idx, "meta.json")
    meta = json.loads(open(meta_path).read())
    with open(meta_path, "w") as f:
        json.dump({**meta, "version": 1}, f)
    with pytest.raises(ValueError, match="compact_index"):
        IndexSearcher(idx)
    compact_index(idx)
    s2 = IndexSearcher(idx)
    assert s2._min_block_cf == s._min_block_cf
    assert s2._term_upper_bound("apple") == tight
    # results unchanged either way
    assert s2.bm25_topk(["apple", "pie"], k=2).equals(want)
