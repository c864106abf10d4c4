"""Randomized end-to-end search property test: build a persistent
index from a random corpus (including an incremental second session)
and compare DOC-LEVEL result sets against a brute-force Python
reference for the unambiguous query algebra:

  WORD(t)          -> docs whose token stream contains t
  OR(a, b)         -> union
  AND(a, b)        -> intersection
  WILD(p*)         -> union over matching vocabulary terms
  phrase "a b"     -> docs with the adjacent token pair

Occurrence-level semantics (duplicate-preserving OR, overlap chains)
are covered by the ported reference goldens in test_occurrences /
test_search_golden; this test guards the END-TO-END pipeline (ids,
segments, shuffle, codecs, catalog, matchers) under corpora the
fixtures never tried.  Tokenization parity comes from using the
engine's own tokenize() for the reference sets."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from fulltextsearch_ray.pipelines.build import build_index
from fulltextsearch_ray.pipelines.query import IndexSearcher
from fulltextsearch_ray.tokenizer import tokenize


def _mk_corpus(rng, n_docs, vocab):
    texts = []
    for _ in range(n_docs):
        k = int(rng.integers(0, 12))
        texts.append(" ".join(rng.choice(vocab, size=k)) if k else "")
    return texts


def _docs_with(pred, toks_by_doc):
    return {d for d, toks in toks_by_doc.items() if pred(toks)}


def _hits_docs(searcher, query):
    tbl = searcher.search_table(query)
    return set(np.asarray(tbl["doc_id"].to_numpy(zero_copy_only=False)).tolist())


@pytest.mark.parametrize("seed", [11, 23, 47])
def test_random_corpus_doc_sets(ray_session, tmp_path, seed):
    rng = np.random.default_rng(seed)
    vocab = [f"t{i}" for i in range(25)] + ["apple", "apply", "banana"]
    texts = _mk_corpus(rng, 60, np.array(vocab, dtype=object))
    idx = str(tmp_path / f"idx{seed}")
    # two sessions: ids continue, results must merge across segments
    half = len(texts) // 2
    for lo, part in ((0, texts[:half]), (half, texts[half:])):
        ds = ray.data.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array(range(lo + 1, lo + 1 + len(part)), pa.uint64()),
                    "text": pa.array(part, pa.string()),
                }
            )
        )
        build_index(ds, idx, text_col="text", doc_id_col="doc_id")
    s = IndexSearcher(idx)

    toks_by_doc = {d + 1: tokenize(t) for d, t in enumerate(texts)}

    for _ in range(12):
        a, b = rng.choice(vocab, size=2, replace=False)
        want_a = _docs_with(lambda tk: a in tk, toks_by_doc)
        want_b = _docs_with(lambda tk: b in tk, toks_by_doc)
        assert _hits_docs(s, f"WORD({a})") == want_a, a
        assert _hits_docs(s, f"OR(WORD({a}),WORD({b}))") == (want_a | want_b), (a, b)
        assert _hits_docs(s, f"AND(WORD({a}),WORD({b}))") == (want_a & want_b), (a, b)
        # adjacent pair phrase
        def has_pair(tk, x=a, y=b):
            return any(u == x and v == y for u, v in zip(tk, tk[1:]))

        want_ph = _docs_with(has_pair, toks_by_doc)
        got_ph = _hits_docs(s, f"SEQ(WORD({a}),WORD({b}))")
        assert got_ph == want_ph, (a, b)

    # WILD over a shared prefix
    want_ap = _docs_with(
        lambda tk: any(t.startswith("appl") for t in tk), toks_by_doc
    )
    assert _hits_docs(s, "WILD(appl*)") == want_ap

    # BM25 candidates == OR doc set; scores are finite and sorted
    q = f"{vocab[0]} {vocab[1]}"
    top = s.bm25_topk(q, k=1000)
    want_or = _docs_with(
        lambda tk: vocab[0] in tk or vocab[1] in tk, toks_by_doc
    )
    assert set(top["doc_id"].to_pylist()) == want_or
    scores = top["score"].to_pylist()
    assert scores == sorted(scores, reverse=True)


# -- combined-feature randomized torture (trimmed from a 20-seed run) ---------


def _brute_docs(toks_by_doc, kind, arg):
    if kind == "word":
        return {d for d, t in toks_by_doc.items() if arg in t}
    if kind == "wild":
        return {d for d, t in toks_by_doc.items() if any(x.startswith(arg) for x in t)}
    if kind == "edit1":
        def ed1(a, b):
            if abs(len(a) - len(b)) > 1:
                return False
            prev = list(range(len(b) + 1))
            for i, ca in enumerate(a, 1):
                cur = [i]
                for j, cb in enumerate(b, 1):
                    cur.append(min(prev[j] + 1, cur[-1] + 1, prev[j - 1] + (ca != cb)))
                prev = cur
            return prev[-1] <= 1
        return {d for d, t in toks_by_doc.items() if any(ed1(arg, x) for x in t)}
    a, b = arg
    return {d for d, t in toks_by_doc.items()
            if any(t[i] == a and t[i + 1] == b for i in range(len(t) - 1))}


@pytest.mark.parametrize("seed", [1003, 1013, 1017])
def test_combined_features_random_parity(ray_session, tmp_path, seed):
    """Random corpus through EVERY feature combination at once —
    multi-field, incremental sessions, compaction, sharded FST sidecar,
    lazy catalog paging, LFU caches — all four searcher configurations
    must agree with a brute-force reference on WORD/WILD/EDIT/SEQ."""
    import ray.data

    from fulltextsearch_ray.pipelines.build import build_index, compact_index
    from fulltextsearch_ray.pipelines.query import IndexSearcher
    from fulltextsearch_ray.state.fst_store import build_fst_sidecar
    from fulltextsearch_ray.tokenizer import tokenize

    vocab = ["apple", "apply", "appel", "banana", "band", "bandana",
             "cat", "cart", "card", "care"] + [f"w{i}" for i in range(40)]
    rng = np.random.default_rng(seed)
    n_docs = int(rng.integers(20, 60))
    multifield = bool(rng.integers(0, 2))
    rows = []
    for d in range(1, n_docs + 1):
        def mk():
            k = int(rng.integers(0, 14))
            return " ".join(rng.choice(vocab, size=k)) if k else ""
        rows.append({"doc_id": d, "a": mk(), "b": mk() if multifield else ""})
    tbl = pa.table({k: [r[k] for r in rows] for k in ("doc_id", "a", "b")})
    toks = {r["doc_id"]: tokenize(r["a"]) + (tokenize(r["b"]) if multifield else [])
            for r in rows}

    idx = str(tmp_path / "idx")
    half = n_docs // 2
    kw = dict(doc_id_col="doc_id")
    if multifield:
        kw["text_cols"] = ["a", "b"]
    else:
        kw["text_col"] = "a"
    build_index(ray.data.from_arrow(tbl.slice(0, half)), idx, overwrite=True, **kw)
    build_index(ray.data.from_arrow(tbl.slice(half)), idx, **kw)
    if rng.integers(0, 2):
        compact_index(idx)
    build_fst_sidecar(idx, shard_terms=int(rng.choice([3, 1_000_000])))

    def hits(s, q):
        t = s.search_table(q)
        return set(np.asarray(t["doc_id"].to_numpy(zero_copy_only=False)).tolist())

    searchers = {
        "parquet": IndexSearcher(idx),
        "fst": IndexSearcher(idx, term_dict="fst"),
        "lazy": IndexSearcher(idx, catalog_budget_rows=0),
        "lfu": IndexSearcher(idx, cache_policy="lfu"),
    }
    for _ in range(8):
        kind = rng.choice(["word", "wild", "edit1", "seq"])
        if kind == "word":
            t = str(rng.choice(vocab)); arg, q = t, f"WORD({t})"
        elif kind == "wild":
            p = str(rng.choice(["app", "ban", "car", "w1", "ca"]))
            arg, q = p, f"WILD({p}*)"
        elif kind == "edit1":
            t = str(rng.choice(["apple", "band", "cart", "w10"]))
            arg, q = t, f"EDIT({t},1)"
        else:
            a, b = (str(rng.choice(vocab)) for _ in range(2))
            arg, q = (a, b), f"SEQ(WORD({a}),WORD({b}))"
        want = _brute_docs(toks, kind, arg)
        for name, s in searchers.items():
            assert hits(s, q) == want, (name, q)
