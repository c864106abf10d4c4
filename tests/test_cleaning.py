"""PII redaction, repetition stats, corpus bigram counts."""

from collections import Counter

import numpy as np
import pyarrow as pa
import ray.data

from fulltextsearch_ray.functions.cleaning import (
    redact_pii_batch,
    repetition_batch,
    top_bigrams,
)


def _batch(texts):
    return pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )


def test_redact_pii_replaces_and_counts():
    out = redact_pii_batch(
        _batch(
            [
                "mail bob.smith+x@corp.example.org and alice@ex.io now",
                "server 192.168.001.1 dialed +4915123456789 twice",
                "clean text only",
            ]
        )
    )
    texts = out["clean_text"].to_pylist()
    assert texts[0] == "mail <EMAIL> and <EMAIL> now"
    assert texts[1] == "server <IP> dialed <PHONE> twice"
    assert texts[2] == "clean text only"
    assert out["n_email"].to_pylist() == [2, 0, 0]
    assert out["n_ip"].to_pylist() == [0, 1, 0]
    assert out["n_phone"].to_pylist() == [0, 1, 0]


def test_repetition_stats_hand_example():
    # doc0: 4 lines, "dup" twice (3 chars each); doc1 single line, no dups
    out = repetition_batch(
        _batch(["dup\nuniq one\ndup\nother", "a b a b a c"])
    )
    assert out["dup_line_frac"].to_pylist() == [0.25, 0.0]  # 1 - 3/4
    # dup chars = 2*3; total = 3+8+3+5 = 19
    assert out["dup_line_char_frac"].to_pylist()[0] == round(6 / 19, 6)
    # doc1 bigrams: ab,ba,ab,ba,ac → top 'a b' 2 of 5
    assert out["top_bigram_frac"].to_pylist()[1] == 0.4


def test_repetition_short_docs_zero():
    out = repetition_batch(_batch(["solo", ""]))
    assert out["top_bigram_frac"].to_pylist() == [0.0, 0.0]
    assert out["dup_line_frac"].to_pylist() == [0.0, 0.0]


def test_repetition_null_text_is_empty_doc():
    out = repetition_batch(
        pa.table({"doc_id": pa.array([0, 1], pa.int64()),
                  "text": pa.array(["a b\na b", None], pa.string())})
    )
    assert out["dup_line_frac"].to_pylist() == [0.5, 0.0]
    assert out["top_bigram_frac"].to_pylist()[1] == 0.0


def test_top_bigrams_counts_and_ties(ray_session):
    ds = ray.data.from_arrow(_batch(["x y x y z", "x y q", "q z"]))
    rows = top_bigrams(ds, k=3).take_all()
    got = [(r["bigram"], r["n"]) for r in rows]
    # 'x y' 3×; then count-1 bigrams in ascending lexical order
    assert got[0] == ("x y", 3)
    assert got[1:] == [("q z", 1), ("y q", 1)]


def test_top_bigrams_matches_counter_across_blocks(ray_session):
    rng = np.random.default_rng(9)
    vocab = [f"b{i}" for i in range(6)]
    texts = [" ".join(rng.choice(vocab, size=rng.integers(0, 12))) for _ in range(50)]
    ref = Counter()
    for t in texts:
        w = t.split()
        ref.update(f"{a} {b}" for a, b in zip(w, w[1:]))
    expect = sorted(ref.items(), key=lambda kv: (-kv[1], kv[0]))
    assert len(set(ref.values())) < len(ref)  # count ties to break
    ds = ray.data.from_arrow(_batch(texts)).repartition(4).materialize()
    assert ds.num_blocks() == 4
    for k in (5, len(expect)):
        got = [(r["bigram"], r["n"]) for r in top_bigrams(ds, k=k).take_all()]
        assert got == expect[:k]
