"""Duplicated-substring span detection + removal (functions/spans.py).

Hand-computed goldens on tiny corpora, a brute-force cross-check of
the window-count/merge semantics, map-side==distributed path
equality (the shared ``common.GATHER_BYTES`` forced to -1), a numpy
differential of the
duplicated-window count pass (``common.partitioned_sum``) and guards
on empty corpora, duplicate ids and the per-key Ray reduce."""

import numpy as np
import pyarrow as pa
import pytest
import ray
import ray.data

from fulltextsearch_ray.functions import common
from fulltextsearch_ray.functions.spans import (
    _dup_hash_dataset,
    _grams_full,
    cut_dup_spans,
    dup_spans,
    grams_with_pos,
    spans_from_marks,
)


def _ds(texts, ids=None):
    ids = ids or list(range(1, len(texts) + 1))
    return ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )
    )


def _brute_spans(texts, ids, gram_len, min_count):
    """Reference implementation: python dict of window counts, then
    per-doc merge of marked starts with gap <= gram_len."""
    docs = []
    for t in texts:
        toks = [w for w in __import__("re").split(r"[^a-z0-9_\-]+", t.lower()) if w]
        docs.append(toks)
    counts = {}
    for toks in docs:
        for i in range(len(toks) - gram_len + 1):
            g = " ".join(toks[i : i + gram_len])
            counts[g] = counts.get(g, 0) + 1
    spans = []
    for did, toks in zip(ids, docs):
        marks = [
            i
            for i in range(len(toks) - gram_len + 1)
            if counts[" ".join(toks[i : i + gram_len])] >= min_count
        ]
        if not marks:
            continue
        start, prev, n = marks[0], marks[0], 1
        for p in marks[1:]:
            if p - prev <= gram_len:
                prev, n = p, n + 1
            else:
                spans.append((did, start, prev + gram_len, n))
                start, prev, n = p, p, 1
        spans.append((did, start, prev + gram_len, n))
    return sorted(spans)


def _got_spans(ds, **kw):
    rows = dup_spans(ds, **kw).take_all()
    return sorted((r["doc_id"], r["start_tok"], r["end_tok"], r["n_grams"]) for r in rows)


# the default size budget, and -1: every duplicated-hash set (and every
# group stage) past it, so the distributed mark / co-group rebuild runs
BUDGETS = (common.GATHER_BYTES, -1)


def test_dup_spans_golden(ray_session):
    # "alpha beta gamma delta" appears in docs 1 and 2 -> one 4-token span each
    texts = [
        "alpha beta gamma delta unique-one tail",
        "head alpha beta gamma delta unique-two",
        "nothing shared here at all now",
    ]
    got = _got_spans(_ds(texts), gram_len=4, min_count=2)
    assert got == [(1, 0, 4, 1), (2, 1, 5, 1)]


def test_dup_spans_merges_overlapping_windows(ray_session):
    # a 6-token shared run -> 3 overlapping windows merge into ONE span
    shared = "one two three four five six"
    texts = [f"{shared} xxa xxb", f"xxc {shared} xxd"]
    got = _got_spans(_ds(texts), gram_len=4, min_count=2)
    assert got == [(1, 0, 6, 3), (2, 1, 7, 3)]


def test_dup_spans_within_one_doc(ray_session):
    # repetition INSIDE a single document counts toward min_count
    texts = ["ra rb rc rd zfill1 zfill2 ra rb rc rd", "completely different text body here"]
    got = _got_spans(_ds(texts), gram_len=4, min_count=2)
    assert got == [(1, 0, 4, 1), (1, 6, 10, 1)]


def test_dup_spans_adjacent_spans_merge(ray_session):
    # marks exactly gram_len apart (adjacent ranges) merge
    texts = ["pa pb pc pd qa qb qc qd", "pa pb pc pd x1 x2 x3 x4 qa qb qc qd"]
    got = _got_spans(_ds(texts), gram_len=4, min_count=2)
    assert got == [(1, 0, 8, 2), (2, 0, 4, 1), (2, 8, 12, 1)]


def test_dup_spans_matches_brute_force(ray_session):
    rng = np.random.default_rng(7)
    vocab = [f"w{i}" for i in range(30)]
    texts = [
        " ".join(rng.choice(vocab, size=rng.integers(0, 40)))
        for _ in range(60)
    ]
    ids = list(range(1, len(texts) + 1))
    for L, m in [(3, 2), (4, 3)]:
        got = _got_spans(_ds(texts, ids), gram_len=L, min_count=m)
        assert got == _brute_spans(texts, ids, L, m)


def test_dup_spans_distributed_matches_broadcast(ray_session, monkeypatch):
    rng = np.random.default_rng(11)
    vocab = [f"v{i}" for i in range(20)]
    texts = [" ".join(rng.choice(vocab, size=25)) for _ in range(40)]
    bc = _got_spans(_ds(texts), gram_len=3, min_count=2)
    monkeypatch.setattr(common, "GATHER_BYTES", -1)
    dist = _got_spans(_ds(texts), gram_len=3, min_count=2)
    assert bc == dist and len(bc) > 0


def test_cut_dup_spans_golden(ray_session):
    texts = [
        "alpha beta gamma delta unique-one tail",
        "head alpha beta gamma delta unique-two",
        "nothing shared here at all now",
    ]
    rows = {r["doc_id"]: r for r in cut_dup_spans(_ds(texts), gram_len=4, min_count=2).take_all()}
    assert rows[1]["text_cut"] == "unique-one tail" and rows[1]["n_removed"] == 4
    assert rows[2]["text_cut"] == "head unique-two" and rows[2]["n_removed"] == 4
    # untouched doc keeps every token (normalized join) and appears in output
    assert rows[3]["text_cut"] == "nothing shared here at all now"
    assert rows[3]["n_removed"] == 0


def test_cut_dup_spans_fully_removed_doc_is_empty(ray_session):
    texts = ["da db dc dd", "da db dc dd", "fresh words only appear once"]
    rows = {r["doc_id"]: r for r in cut_dup_spans(_ds(texts), gram_len=4, min_count=2).take_all()}
    assert rows[1]["text_cut"] == "" and rows[1]["n_removed"] == 4
    assert rows[2]["text_cut"] == "" and rows[2]["n_removed"] == 4
    assert rows[3]["n_removed"] == 0


def test_cut_dup_spans_distributed_matches(ray_session, monkeypatch):
    rng = np.random.default_rng(3)
    vocab = [f"u{i}" for i in range(15)]
    texts = [" ".join(rng.choice(vocab, size=20)) for _ in range(30)]
    key = lambda rows: sorted((r["doc_id"], r["text_cut"], r["n_removed"]) for r in rows)
    bc = key(cut_dup_spans(_ds(texts), gram_len=3, min_count=2).take_all())
    monkeypatch.setattr(common, "GATHER_BYTES", -1)
    dist = key(cut_dup_spans(_ds(texts), gram_len=3, min_count=2).take_all())
    assert bc == dist


def test_grams_with_pos_doc_boundaries():
    texts = pa.array(["a b c d", "e f", "g h i"], pa.string())
    h, parent, pos, counts = grams_with_pos(texts, 2)
    assert counts.tolist() == [4, 2, 3]
    # windows never straddle a doc boundary
    assert parent.tolist() == [0, 0, 0, 1, 2, 2]
    assert pos.tolist() == [0, 1, 2, 0, 0, 1]
    assert len(h) == 6


def test_spans_from_marks_empty():
    t = spans_from_marks(np.empty(0, np.int64), np.empty(0, np.int64), 4)
    assert t.num_rows == 0


def test_cut_dup_spans_distributed_null_text(ray_session, monkeypatch):
    """Regression: a NULL-text document in the distributed (budget -1)
    cut used to be routed to the SPAN side of the co-group (the
    rebuild classifies rows by text validity) and crashed the doc
    lookup; the map-side path always treated null as ''."""
    texts = ["w x y z w x y z", "w x y z q r s t", None, "unrelated words only here"]
    tbl = pa.table(
        {
            "doc_id": pa.array(range(1, len(texts) + 1), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    ds = ray.data.from_arrow(tbl)
    key = lambda rows: sorted((r["doc_id"], r["text_cut"], r["n_removed"]) for r in rows)
    bc = key(cut_dup_spans(ds, gram_len=3, min_count=2).take_all())
    monkeypatch.setattr(common, "GATHER_BYTES", -1)
    dist = key(cut_dup_spans(ds, gram_len=3, min_count=2).take_all())
    assert bc == dist
    assert len(bc) == len(texts)


# -- duplicated-window count pass (common.partitioned_sum) -------------------


def _np_dup_hashes(texts, gram_len, min_count):
    """Reference: every window hash of the whole corpus in one process,
    counted with np.unique."""
    h = _grams_full(pa.array(texts, pa.string()), gram_len, with_pos=False)[0]
    uh, cnt = np.unique(h, return_counts=True)
    return uh[cnt >= min_count]


def _got_dup_hashes(ds, gram_len, min_count):
    rows = _dup_hash_dataset(ds, "text", gram_len, min_count).take_all()
    return np.sort(np.array([r["h"] for r in rows], dtype=np.int64))


def test_dup_hash_dataset_matches_numpy_across_blocks(ray_session):
    rng = np.random.default_rng(5)
    vocab = [f"t{i}" for i in range(5)]
    texts = [" ".join(rng.choice(vocab, size=rng.integers(0, 30))) for _ in range(40)]
    # one window planted once in each of the first and last doc: its
    # count reaches 2 only when the partial counts of two blocks add up
    texts[0] += " cross block planted window"
    texts[-1] += " cross block planted window"
    ds = ray.data.from_arrow(
        pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    ).repartition(4).materialize()
    blocks = [ray.get(r) for r in ds.to_arrow_refs()]
    assert len(blocks) == 4
    planted = _grams_full(pa.array(["cross block planted window"]), 4, with_pos=False)[0][0]
    per_block = [
        int((_grams_full(b["text"], 4, with_pos=False)[0] == planted).sum()) for b in blocks
    ]
    assert max(per_block) == 1 and sum(per_block) == 2
    for L in (3, 4):
        for m in (1, 2, 3):
            ref = _np_dup_hashes(texts, L, m)
            got = _got_dup_hashes(ds, L, m)
            assert got.tolist() == ref.tolist(), (L, m)
            assert (ref < 0).any()  # int64 view of the md5 prefix: % K sign
    assert planted in _got_dup_hashes(ds, 4, 2)
    assert planted not in _got_dup_hashes(ds, 4, 3)


@pytest.mark.parametrize(
    "texts", [[], ["a b", "c", "", None, "a b c"]], ids=["empty", "all-short"]
)
def test_no_windows_keeps_schema_and_cuts_nothing(ray_session, monkeypatch, texts):
    ds = _ds(texts)
    for budget in BUDGETS:
        monkeypatch.setattr(common, "GATHER_BYTES", budget)
        dup = _dup_hash_dataset(ds, "text", 4, 2).materialize()
        assert dup.schema().base_schema == pa.schema([("h", pa.int64())])
        assert dup.count() == 0
        rows = cut_dup_spans(ds, gram_len=4, min_count=2).take_all()
        assert sorted(r["doc_id"] for r in rows) == list(range(1, len(texts) + 1))
        assert all(r["n_removed"] == 0 for r in rows)
        assert dup_spans(ds, gram_len=4, min_count=2).take_all() == []


def test_span_ops_never_use_ray_per_key_reduce(ray_session, monkeypatch):
    """The duplicated-window count (and top_bigrams and exact_dedup)
    must not fall back to Ray's per-distinct-key groupby reduce."""
    from ray.data.grouped_data import GroupedData

    from fulltextsearch_ray.functions.cleaning import top_bigrams
    from fulltextsearch_ray.functions.dedup import exact_dedup

    def boom(*a, **k):
        raise AssertionError("per-key Ray groupby reduce")

    monkeypatch.setattr(GroupedData, "sum", boom)
    monkeypatch.setattr(GroupedData, "aggregate", boom)
    texts = [
        "alpha beta gamma delta unique-one tail",
        "head alpha beta gamma delta unique-two",
        "nothing shared here at all now",
    ]
    assert _got_spans(_ds(texts), gram_len=4, min_count=2) == [(1, 0, 4, 1), (2, 1, 5, 1)]
    for budget in BUDGETS:
        monkeypatch.setattr(common, "GATHER_BYTES", budget)
        rows = {r["doc_id"]: r for r in cut_dup_spans(
            _ds(texts), gram_len=4, min_count=2).take_all()}
        assert rows[1]["text_cut"] == "unique-one tail" and rows[1]["n_removed"] == 4
        assert rows[2]["text_cut"] == "head unique-two" and rows[2]["n_removed"] == 4
        assert rows[3]["n_removed"] == 0
        got = [(r["bigram"], r["n"]) for r in top_bigrams(_ds(texts), k=2).take_all()]
        assert got == [("alpha beta", 2), ("beta gamma", 2)]
        copies = sorted((r["doc_id"], r["n_copies"]) for r in exact_dedup(_ds(texts + texts[:1])).take_all())
        assert copies == [(1, 2), (2, 1), (3, 1)]


# -- skewed corpus, LargeList fallback, input validation ---------------------


def test_cut_dup_spans_budget0_on_skewed_corpus(ray_session, monkeypatch):
    """The past-budget co-group rebuild (the path a 100 TB corpus always
    takes) on a corpus where 30% of docs share one text: parity with the
    broadcast path and a sane wall bound (it must not degenerate into
    per-duplicate quadratic work)."""
    import time

    import ray.data

    from fulltextsearch_ray.functions.spans import cut_dup_spans

    n = 400
    texts = [
        "common boilerplate header license text all rights reserved here"
        if i % 10 < 3
        else f"unique document {i} alpha{i} beta{i * 7} gamma{i * 13} delta{i * 31}"
        for i in range(n)
    ]
    tbl = pa.table(
        {"doc_id": pa.array(range(n), pa.int64()), "text": pa.array(texts, pa.string())}
    )
    ds = ray.data.from_arrow(tbl)
    base = {
        r["doc_id"]: (r["text_cut"], r["n_removed"])
        for r in cut_dup_spans(ds, gram_len=4, min_count=2).take_all()
    }
    monkeypatch.setattr(common, "GATHER_BYTES", -1)
    t0 = time.perf_counter()
    got = {
        r["doc_id"]: (r["text_cut"], r["n_removed"])
        for r in cut_dup_spans(ds, gram_len=4, min_count=2).take_all()
    }
    dt = time.perf_counter() - t0
    assert got == base and len(got) == n
    # every duplicated doc must actually be cut
    assert all(got[i][1] > 0 for i in range(n) if i % 10 < 3)
    assert dt < 120, f"budget -1 spans path took {dt:.1f}s on a 400-doc corpus"


def test_cut_dup_spans_large_offset_fallback(ray_session, monkeypatch):
    """cut_dup_spans' rebuild produces identical text through the
    LargeList fallback (forced via a tiny threshold)."""
    import ray.data

    from fulltextsearch_ray.functions.spans import cut_dup_spans

    texts = ["dup dup dup dup dup one two three four five six seven"] * 3 + [
        f"unique doc {i} aa{i} bb{i} cc{i} dd{i} ee{i}" for i in range(5)
    ]
    tbl = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                    "text": pa.array(texts)})
    base = {r["doc_id"]: r["text_cut"] for r in
            cut_dup_spans(ray.data.from_arrow(tbl), gram_len=4, min_count=2).take_all()}
    monkeypatch.setattr(common, "_LIST_OFFSET_MAX", 1)
    got = {r["doc_id"]: r["text_cut"] for r in
           cut_dup_spans(ray.data.from_arrow(tbl), gram_len=4, min_count=2).take_all()}
    assert got == base
    # and the distributed (budget -1) rebuild path too
    monkeypatch.setattr(common, "GATHER_BYTES", -1)
    got0 = {r["doc_id"]: r["text_cut"] for r in
            cut_dup_spans(ray.data.from_arrow(tbl), gram_len=4, min_count=2).take_all()}
    assert got0 == base


def test_dup_spans_rejects_duplicate_doc_ids(ray_session):
    """Duplicate doc_ids merged two docs' window streams and could emit
    spans with end_tok < start_tok (position reset inside one 'doc') —
    both span ops must fail loudly, like the index build and dedup."""
    from fulltextsearch_ray.functions.spans import cut_dup_spans, dup_spans

    t = "one two three four five six seven eight nine ten"
    ds = ray.data.from_arrow(
        pa.table({"doc_id": pa.array([5, 5], pa.int64()),
                  "text": pa.array([t, t], pa.string())})
    )
    with pytest.raises(Exception, match="must be unique"):
        dup_spans(ds, gram_len=4, min_count=2).take_all()
    with pytest.raises(Exception, match="must be unique"):
        cut_dup_spans(ds, gram_len=4, min_count=2).take_all()


def test_spans_gram_len_validated(ray_session):
    from fulltextsearch_ray.functions.spans import dup_spans

    ds = ray.data.from_arrow(
        pa.table({"doc_id": pa.array([1], pa.int64()),
                  "text": pa.array(["a b c d e"], pa.string())})
    )
    with pytest.raises(Exception, match="gram_len"):
        dup_spans(ds, gram_len=0).take_all()


def test_cut_spans_distributed_rebuild_guards_missing_doc(ray_session, monkeypatch):
    """Round-4 ADVICE: the distributed cut rebuild's searchsorted doc
    lookup is guarded — a span whose doc is absent from its partition
    raises a descriptive error instead of IndexError / silent corruption."""
    import ray.data

    from fulltextsearch_ray.functions import spans as spans_mod

    docs = pa.table(
        {
            "doc_id": pa.array([1, 2], pa.int64()),
            "text": pa.array(["a b c d a b c d", "x y"], pa.string()),
        }
    )
    # budget -1 forces the distributed co-group path
    monkeypatch.setattr(common, "GATHER_BYTES", -1)
    out = spans_mod.cut_dup_spans(ray.data.from_arrow(docs), gram_len=4, min_count=2).take_all()
    assert {r["doc_id"] for r in out} == {1, 2}
    # duplicate doc_id violates the documented uniqueness contract:
    # spans would attach to only the first matching row (silently
    # diverging from the broadcast path) — the rebuild raises instead
    dup = pa.table(
        {
            "doc_id": pa.array([1, 1], pa.int64()),
            "text": pa.array(["a b c d a b c d", "a b c d a b c d"], pa.string()),
        }
    )
    with pytest.raises(Exception, match="unique"):
        spans_mod.cut_dup_spans(ray.data.from_arrow(dup), gram_len=4, min_count=2).take_all()
