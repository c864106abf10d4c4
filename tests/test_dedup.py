"""Dedup-operator tests: vectorized-kernel parity with the per-doc
reference forms, cap behavior under skew, and LSH-vs-exact recall."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from fulltextsearch_ray.functions.common import md5_u64
from fulltextsearch_ray.functions.dedup import (
    MinHashStage,
    _shingles,
    embedding_neardup_pairs,
    minhash_lsh_pairs,
    minhash_signature,
    ngram_jaccard_pairs,
    shingle_batch,
    simhash_batch,
)
from fulltextsearch_ray.tokenizer import TOKEN_RE

TEXTS = [
    "the quick brown fox jumps over the lazy dog",
    "",
    "one two",
    "single",
    "the quick brown fox jumped over a lazy dog",
    "alpha-beta gamma_delta 42 zeta",
    None,
    "x",
    "ἄλφα βῆτα γάμμα the quick",  # non-ASCII tokens
]


def test_shingle_batch_matches_per_doc():
    sh, dix = shingle_batch(pa.array(TEXTS, pa.string()), 3)
    ref = sorted((d, s) for d, t in enumerate(TEXTS) for s in _shingles(t or "", 3))
    assert sorted(zip(dix.tolist(), sh.to_pylist())) == ref
    # doc-contiguous ascending order (required by segmented reductions)
    assert (np.diff(dix) >= 0).all()


def test_minhash_signatures_match_per_doc():
    st = MinHashStage(num_perm=64, bands=16, n=3)
    batch = pa.table(
        {"doc_id": pa.array(range(len(TEXTS)), pa.int64()), "text": pa.array(TEXTS, pa.string())}
    )
    sig, present = st.signatures(batch)
    for d, t in enumerate(TEXTS):
        shingles = _shingles(t or "", 3)
        assert present[d] == bool(shingles)
        if shingles:
            np.testing.assert_array_equal(sig[:, d], minhash_signature(shingles, st.a, st.b))


def test_simhash_batch_matches_per_doc():
    def ref(text):
        toks = TOKEN_RE.findall((text or "").lower())
        if not toks:
            return "0" * 16
        terms, tfs = np.unique(np.array(toks, dtype=object), return_counts=True)
        h = np.array([md5_u64(t) for t in terms], dtype=np.uint64)
        bits = ((h[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1)).astype(np.int64)
        sums = np.where(bits == 1, tfs[:, None], -tfs[:, None]).sum(axis=0)
        v = np.uint64(0)
        for b in np.flatnonzero(sums > 0):
            v |= np.uint64(1) << np.uint64(b)
        return format(int(v), "016x")

    batch = pa.table(
        {"doc_id": pa.array(range(len(TEXTS)), pa.int64()), "text": pa.array(TEXTS, pa.string())}
    )
    out = simhash_batch(batch)
    # token-less docs emit NO row (the oracle's tf CTE has nothing to
    # group for them) — parity holds over the docs that do tokenize
    want = {i: ref(t) for i, t in enumerate(TEXTS) if ref(t) != "0" * 16}
    got = dict(zip(out["doc_id"].to_pylist(), out["simhash"].to_pylist()))
    assert got == want


@pytest.fixture()
def docs_ds(ray_session):
    texts = [
        "the quick brown fox jumps over",
        "the quick brown fox jumps over",       # exact dup of 1
        "totally different words appear here",
        "the quick brown fox leaps over",        # near dup of 1
        "unrelated content entirely separate",
    ]
    return ray.data.from_arrow(
        pa.table({"doc_id": pa.array(range(1, 6), pa.int64()), "text": pa.array(texts, pa.string())})
    )


def test_minhash_lsh_finds_duplicates(docs_ds):
    rows = minhash_lsh_pairs(docs_ds, num_perm=64, bands=16, threshold=0.9).take_all()
    assert {(r["a"], r["b"]) for r in rows} == {(1, 2)}
    assert rows[0]["est_jaccard"] == 1.0


def test_minhash_bucket_cap_skips_degenerate_bucket(ray_session):
    # 40 identical docs: every band bucket holds all 40 → with
    # max_bucket=10 every bucket is skipped and NO pairs are emitted
    # (logged skip, not a quadratic emit)
    n = 40
    ds = ray.data.from_arrow(
        pa.table(
            {"doc_id": pa.array(range(n), pa.int64()),
             "text": pa.array(["same boilerplate text everywhere"] * n, pa.string())}
        )
    )
    rows = minhash_lsh_pairs(ds, num_perm=64, bands=16, threshold=0.5, max_bucket=10).take_all()
    assert rows == []
    # with an adequate cap the pairs come back
    rows = minhash_lsh_pairs(ds, num_perm=64, bands=16, threshold=0.5, max_bucket=64).take_all()
    assert len(rows) == n * (n - 1) // 2


def test_ngram_jaccard_exact_values(docs_ds):
    rows = ngram_jaccard_pairs(docs_ds, n=3, threshold=0.2).take_all()
    got = {(r["a"], r["b"]): r["jaccard"] for r in rows}
    # docs 1,2 identical → jaccard 1.0; docs 1,4 share 2 of 6 shingles
    assert got[(1, 2)] == 1.0
    assert abs(got[(1, 4)] - 2 / 6) < 1e-6
    assert (1, 3) not in got


def test_ngram_jaccard_df_cap_drops_stop_shingle(ray_session):
    # every doc shares one boilerplate shingle; with a df cap below the
    # corpus size that shingle contributes no pairs, so docs that ONLY
    # share it pair at jaccard 0 (filtered), while true near-dups keep
    # their (reduced) score — and the pair stage never sees an O(n²)
    # group.
    n = 30
    texts = [f"standard footer line plus unique{i} token{i} here{i}" for i in range(n)]
    texts[0] = "standard footer line plus unique1 token1 here1 extra"  # near-dup of doc 1
    ds = ray.data.from_arrow(
        pa.table({"doc_id": pa.array(range(n), pa.int64()), "text": pa.array(texts, pa.string())})
    )
    uncapped = ngram_jaccard_pairs(ds, n=3, threshold=0.01, shingle_df_cap=1024).take_all()
    capped = ngram_jaccard_pairs(ds, n=3, threshold=0.01, shingle_df_cap=10).take_all()
    # the shared 'standard footer line'/'footer line plus' shingles pair
    # every doc with every other when uncapped
    assert len(uncapped) == n * (n - 1) // 2
    # capped: only the true near-dup pair survives (docs 0 and 1 share
    # low-df shingles beyond the boilerplate)
    assert {(r["a"], r["b"]) for r in capped} == {(0, 1)}


def test_embedding_neardup_lsh_vs_exact(ray_session):
    rng = np.random.default_rng(1)
    base = rng.standard_normal((40, 16))
    vecs = np.vstack([base, base[:8] + rng.standard_normal((8, 16)) * 0.01])
    ds = ray.data.from_arrow(
        pa.table(
            {"vec_id": pa.array(range(len(vecs)), pa.int64()),
             "embedding": pa.array([r.astype(np.float32).tolist() for r in vecs], pa.list_(pa.float32()))}
        )
    )
    exact = embedding_neardup_pairs(ds, threshold=0.95, method="exact")
    exact_pairs = set(zip(exact["a"].to_pylist(), exact["b"].to_pylist()))
    lsh_rows = embedding_neardup_pairs(ds, threshold=0.95, bands=4, planes_per_band=4).take_all()
    lsh_pairs = {(r["a"], r["b"]) for r in lsh_rows}
    # LSH is a subset of exact with high recall on near-identical pairs
    assert lsh_pairs <= exact_pairs
    assert len(lsh_pairs) >= 0.75 * len(exact_pairs)
    # cosine values are identical where both report a pair
    lsh_vals = {(r["a"], r["b"]): r["cosine"] for r in lsh_rows}
    exact_vals = {
        (a, b): c
        for a, b, c in zip(
            exact["a"].to_pylist(), exact["b"].to_pylist(), exact["cosine"].to_pylist()
        )
    }
    for p, v in lsh_vals.items():
        assert v == exact_vals[p]


def test_embedding_neardup_bucket_cap(ray_session):
    n = 30
    vec = np.ones(8, dtype=np.float32)
    ds = ray.data.from_arrow(
        pa.table(
            {"vec_id": pa.array(range(n), pa.int64()),
             "embedding": pa.array([vec.tolist()] * n, pa.list_(pa.float32()))}
        )
    )
    rows = embedding_neardup_pairs(ds, threshold=0.9, bands=2, planes_per_band=4, max_bucket=8).take_all()
    assert rows == []  # identical vectors all land in one capped bucket


def test_pair_pipeline_small_and_distributed_paths_agree(ray_session, monkeypatch):
    """The in-process small-input path and the hash-partitioned
    distributed path must produce identical pair sets."""
    import fulltextsearch_ray.functions.dedup as dd
    from fulltextsearch_ray.functions import common

    import pyarrow as pa
    import ray.data

    texts = [
        "the quick brown fox jumps over the lazy dog again and again",
        "the quick brown fox jumps over the lazy dog again and again",
        "a completely different document about ray data pipelines",
        "the quick brown fox jumps over the lazy dog again and once more",
    ]
    docs = ray.data.from_arrow(
        pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    )
    small = dd.minhash_lsh_pairs(docs, num_perm=32, bands=8, threshold=0.3).take_all()
    monkeypatch.setattr(common, "GATHER_BYTES", -1)
    dist = dd.minhash_lsh_pairs(docs, num_perm=32, bands=8, threshold=0.3).take_all()
    key = lambda r: (r["a"], r["b"])
    assert sorted(small, key=key) == sorted(dist, key=key)
    assert len(small) >= 1


def test_simhash_neardup_skips_tokenless_docs(ray_session):
    """Null/empty/punctuation-only docs share fingerprint 0 but carry
    no content signal — they must NOT pair with each other (the SQL
    oracle's tf-derived fingerprints exclude them by construction, and
    the minhash path skips no-shingle docs for the same reason)."""
    import ray.data

    from fulltextsearch_ray.functions.dedup import simhash_neardup_pairs

    ds = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
                "text": pa.array(["!!!", "???", None, "real text here", "real text here"]),
            }
        )
    )
    out = simhash_neardup_pairs(ds, max_hamming=3, bands=4).to_pandas()
    pairs = set(zip(out.a.tolist(), out.b.tolist()))
    assert (4, 5) in pairs  # the genuine duplicate pair survives
    assert all(a not in (1, 2, 3) and b not in (1, 2, 3) for a, b in pairs), pairs


def test_ngram_jaccard_hash_first_matches_bruteforce(ray_session):
    import itertools

    import ray.data

    from fulltextsearch_ray.functions.dedup import ngram_jaccard_pairs

    texts = [
        "a b c d e f g",
        "a b c d e f h",
        "x y z w q r s",
        "a b c x y z w",
    ]
    ds = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )
    )
    got = {
        (r["a"], r["b"]): r["jaccard"]
        for r in ngram_jaccard_pairs(ds, n=3, threshold=0.01).take_all()
    }

    def sh(t):
        w = t.split()
        return {" ".join(w[i : i + 3]) for i in range(len(w) - 2)}

    expect = {}
    for i, j in itertools.combinations(range(len(texts)), 2):
        a, b = sh(texts[i]), sh(texts[j])
        jac = len(a & b) / len(a | b)
        if jac >= 0.01:
            expect[(i, j)] = round(jac, 6)
    assert got == expect


def test_ngram_jaccard_duplicate_doc_id_raises(ray_session):
    """The ridden set size (and the packed pair key) requires unique
    doc ids; a duplicated id must fail loudly, not mis-score."""
    import ray.data

    from fulltextsearch_ray.functions.dedup import ngram_jaccard_pairs

    tbl = pa.table({
        "doc_id": pa.array([1, 2, 2], pa.int64()),
        "text": pa.array(["aa bb cc dd ee", "aa bb cc dd ff", "aa bb cc dd ff gg"]),
    })
    with pytest.raises((ValueError, Exception), match="unique"):
        ngram_jaccard_pairs(ray.data.from_arrow(tbl), n=3, threshold=0.01).take_all()
    # cross-BATCH duplicate (two blocks): caught in the pair stage
    t1 = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                   "text": pa.array(["aa bb cc dd ee", "aa bb cc dd ff"])})
    t2 = pa.table({"doc_id": pa.array([2], pa.int64()),
                   "text": pa.array(["aa bb cc dd ff gg"])})
    ds2 = ray.data.from_arrow(t1).union(ray.data.from_arrow(t2))
    with pytest.raises((ValueError, Exception), match="unique"):
        ngram_jaccard_pairs(ds2, n=3, threshold=0.01).take_all()


def test_ngram_jaccard_cross_batch_duplicate_disjoint_shingles(ray_session):
    """A doc_id duplicated across INPUT BATCHES whose two texts share
    no word n-gram must still fail loudly: the within-batch uniqueness
    check cannot see it and the two copies' shingle rows never share a
    hash, so only the per-doc sentinel rows (same hash, same doc, same
    partition) can trip the pair stage's duplicate guard."""
    n_filler = 9000  # > any default map_batches batch_size: the two
    # copies of doc 7 are guaranteed to arrive in different batches
    ids = [7] + list(range(10, 10 + n_filler)) + [7]
    texts = (
        ["alpha beta gamma delta"]
        + [f"filler{i} word{i} token{i} item{i}" for i in range(n_filler)]
        + ["iota kappa lambda mu"]  # disjoint shingles from copy 1
    )
    ds = ray.data.from_arrow(
        pa.table({"doc_id": pa.array(ids, pa.int64()), "text": pa.array(texts, pa.string())})
    )
    with pytest.raises(Exception, match="must be unique"):
        ngram_jaccard_pairs(ds, n=3, threshold=0.1).take_all()


def test_ngram_jaccard_sentinels_do_not_change_results(ray_session):
    """The sentinel rows are bookkeeping only — pair output on a valid
    corpus is unchanged (exact values, no spurious pairs)."""
    ds = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3], pa.int64()),
                "text": pa.array(
                    [
                        "one two three four five six",
                        "one two three four five six",
                        "totally different words here now",
                    ],
                    pa.string(),
                ),
            }
        )
    )
    rows = ngram_jaccard_pairs(ds, n=3, threshold=0.2).take_all()
    got = {(r["a"], r["b"]): r["jaccard"] for r in rows}
    assert got == {(1, 2): 1.0}


def test_ngram_jaccard_randomized_brute_force_parity(ray_session):
    """Pipeline output == O(n²) set-based Jaccard on a random corpus:
    validates the hash-partitioned pair machinery (incl. the
    ridden set sizes and sentinel rows) against first principles."""
    rng = np.random.default_rng(42)
    vocab = np.array([f"w{i}" for i in range(12)])
    n_docs, n = 40, 3
    texts = [" ".join(rng.choice(vocab, size=int(rng.integers(2, 20)))) for _ in range(n_docs)]
    # a few near-copies so high-jaccard pairs exist
    texts[5] = texts[4] + " extra"
    texts[9] = texts[8]

    def shingles(t):
        toks = t.split()  # vocab is lowercase alnum: engine tokenizer == split
        if 0 < len(toks) < n:
            return {" ".join(toks)}
        return {" ".join(toks[j : j + n]) for j in range(len(toks) - n + 1)}

    ss = [shingles(t) for t in texts]
    thresh = 0.2
    exp = {}
    for a in range(n_docs):
        for b in range(a + 1, n_docs):
            inter = len(ss[a] & ss[b])
            if inter:
                j = inter / len(ss[a] | ss[b])
                if j >= thresh:
                    exp[(a, b)] = j
    assert len(exp) >= 2  # the corpus actually exercises the pair path

    # ids past 2^31 (and past 2^32) travel as two int64 pair columns:
    # no packed-key ceiling, no id-range error
    for base in (0, 2**31 - 20, 2**33):
        ds = ray.data.from_arrow(
            pa.table({"doc_id": pa.array(range(base, base + n_docs), pa.int64()),
                      "text": pa.array(texts, pa.string())})
        )
        rows = ngram_jaccard_pairs(ds, n=n, threshold=thresh, shingle_df_cap=10**6).take_all()
        got = {(r["a"] - base, r["b"] - base): r["jaccard"] for r in rows}
        assert set(got) == set(exp), base
        for k, v in exp.items():
            # pipeline rounds to 6 decimals (oracle hash convention)
            assert abs(got[k] - round(v, 6)) < 1e-9


def test_shingles_matches_arrow_tokenizer_on_u0130():
    """_shingles must delegate to the SAME utf8proc tokenizer as
    shingle_batch — Python str.lower() diverges on U+0130."""
    from fulltextsearch_ray.functions.dedup import _shingles, shingle_batch

    text = "İstanbul kebap İyi"
    sh, _ = shingle_batch(pa.array([text], pa.string()), 2)
    assert set(_shingles(text, 2)) == set(sh.to_pylist())
