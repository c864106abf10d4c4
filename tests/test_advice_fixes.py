"""Regression tests for the round-1 ADVICE findings:

1. merge_posting_runs bucket-column length on overlapping runs whose
   entry-snapped chunking emits more blocks than ceil(cf/block_cf);
2. one df definition (unique-doc df) in bm25_topk vs bm25_topk_pruned
   on multi-field indexes;
3. binary-search term lookups agree with the scan kernels.

(The _read_term_rows boundary-spill test lives in
tests/test_posting_reader.py, the distributed cut-rebuild guard in
tests/test_spans.py.)
"""

import numpy as np
import pyarrow as pa
import pytest

from fulltextsearch_ray.matchers import expand_pattern
from fulltextsearch_ray.parser import parse_query
from fulltextsearch_ray.pipelines.build import build_index
from fulltextsearch_ray.pipelines.query import IndexSearcher
from fulltextsearch_ray.stages.invert import _posting_rows, merge_posting_runs


def _run(docs, tf_each):
    """One posting run for term 't': each doc gets tf_each occurrences."""
    occ_docs = np.repeat(np.asarray(docs, dtype=np.uint64), tf_each)
    occ_fields = np.full(len(occ_docs), 1, dtype=np.uint64)
    occ_tokens = np.concatenate(
        [np.arange(1, tf_each + 1, dtype=np.uint64) for _ in docs]
    )
    bounds = np.array([0, len(occ_docs)], dtype=np.int64)
    return _posting_rows(
        np.array(["t"], dtype=object), bounds, occ_docs, occ_fields, occ_tokens,
        num_buckets=4, block_cf=1 << 16,
    )


def test_merge_overlapping_runs_entry_snapped_blocks():
    # runs with OVERLAPPING doc ranges force the decode+re-encode slow
    # path; tf=3 per doc with block_cf=4 snaps every chunk back to an
    # entry boundary → 4 blocks of cf=3, not ceil(12/4)=3 blocks.
    group = pa.concat_tables([_run([1, 3], 3), _run([2, 4], 3)])
    merged = merge_posting_runs(group, block_cf=4)
    assert merged.num_rows == 4  # > ceil(12/4): the old crash case
    assert merged["bucket"].to_pylist() == [group["bucket"][0].as_py()] * 4
    from fulltextsearch_ray.codecs import decode_posting_block

    all_docs = []
    for i in range(merged.num_rows):
        d, _f, _t, *_ = decode_posting_block(
            merged["docs"][i].as_py(), merged["fields"][i].as_py(),
            merged["tfs"][i].as_py(), merged["positions"][i].as_py(),
        )
        all_docs.extend(d.tolist())
    assert all_docs == [1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4]


@pytest.fixture(scope="module")
def multifield_index(ray_session, tmp_path_factory):
    import ray.data

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
        text_cols=["t1", "t2"], doc_id_col="doc_id", num_buckets=2, overwrite=True,
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


# ---------------------------------------------------------------------------
# round-2 ADVICE findings
# ---------------------------------------------------------------------------


def test_block_chunking_snaps_to_doc_boundaries():
    """A multi-field doc whose entries straddle the block_cf point must
    NOT split across blocks: per-block n_docs counts sum to the true
    unique-doc df (round-2 ADVICE #2)."""
    # doc 1: 2 occurrences; doc 2: field1 ×2 + field2 ×2.  block_cf=4
    # lands exactly BETWEEN doc 2's two field entries — entry-boundary
    # snapping would split doc 2 across blocks (counting it twice);
    # doc-boundary snapping moves the chunk point back to doc 2's start.
    occ_docs = np.array([1, 1, 2, 2, 2, 2], dtype=np.uint64)
    occ_fields = np.array([1, 1, 1, 1, 2, 2], dtype=np.uint64)
    occ_tokens = np.array([1, 2, 1, 2, 1, 2], dtype=np.uint64)
    bounds = np.array([0, 6], dtype=np.int64)
    tbl = _posting_rows(
        np.array(["t"], dtype=object), bounds, occ_docs, occ_fields, occ_tokens,
        num_buckets=4, block_cf=4,
    )
    n_docs = tbl["n_docs"].to_pylist()
    assert sum(n_docs) == 2  # true df — no doc counted twice
    # every block holds whole docs
    firsts = tbl["first_doc"].to_pylist()
    lasts = tbl["last_doc"].to_pylist()
    for i in range(len(firsts) - 1):
        assert lasts[i] < firsts[i + 1]


def test_block_chunking_single_giant_doc_falls_back():
    """A single doc larger than block_cf still splits (at entry then
    mid-entry boundaries) — bounded blocks beat exact df there."""
    occ_docs = np.full(10, 1, dtype=np.uint64)
    occ_fields = np.full(10, 1, dtype=np.uint64)
    occ_tokens = np.arange(1, 11, dtype=np.uint64)
    bounds = np.array([0, 10], dtype=np.int64)
    tbl = _posting_rows(
        np.array(["t"], dtype=object), bounds, occ_docs, occ_fields, occ_tokens,
        num_buckets=4, block_cf=4,
    )
    assert tbl.num_rows == 3  # 4+4+2 occurrences
    assert tbl["cf"].to_pylist() == [4, 4, 2]


def test_window_cents_round_half_away_from_zero(ray_session):
    """Binary-exact midpoint values (0.125*100 == 12.5 exactly) must
    round like DuckDB round (half AWAY from zero), not Arrow's default
    half-to-even (round-2 ADVICE #4)."""
    import ray.data

    from fulltextsearch_ray.functions.windows import tumbling_window_agg

    tbl = pa.table(
        {
            "ts": pa.array([1_000_000] * 2, pa.timestamp("us")),
            "event_type": pa.array(["a", "a"]),
            "value": pa.array([0.125, -0.125], pa.float64()),
        }
    )
    out = tumbling_window_agg(ray.data.from_arrow(tbl), window="1h").take_all()
    assert len(out) == 1
    # 13 + (-13) cents = 0.0; half-to-even would give 12 + (-12) = 0 too,
    # so ALSO check the one-sided sum
    tbl2 = pa.table(
        {
            "ts": pa.array([1_000_000], pa.timestamp("us")),
            "event_type": pa.array(["a"]),
            "value": pa.array([0.125], pa.float64()),
        }
    )
    out2 = tumbling_window_agg(ray.data.from_arrow(tbl2), window="1h").take_all()
    assert out2[0]["sum_value"] == 0.13  # DuckDB round(12.5) = 13 cents


def test_enwiki_empty_titles_keep_dense_ids(tmp_path, ray_session):
    """An empty <title> (or one that empties after the prefix strip)
    must keep its positional id slot — ids stay dense, matching the
    row_number oracle (round-2 ADVICE #3)."""
    from fulltextsearch_ray.sources.enwiki import read_enwiki_corpus

    xml = (
        "<feed>"
        "<doc><title>Wikipedia: alpha</title></doc>"
        "<doc><title>Wikipedia: </title></doc>"
        "<doc><title></title></doc>"
        "<doc><title>Wikipedia: beta</title></doc>"
        "</feed>"
    )
    p = tmp_path / "shard-00.xml"
    p.write_text(xml, encoding="utf-8")
    rows = sorted(
        read_enwiki_corpus(str(tmp_path)).take_all(), key=lambda r: r["doc_id"]
    )
    assert [r["doc_id"] for r in rows] == [1, 2, 3, 4]
    assert [r["content"] for r in rows] == ["alpha", "", "", "beta"]


def test_highlight_missing_forward_row_is_descriptive(ray_session, tmp_path):
    """Round-4 ADVICE: a hit doc with no forward-store row surfaces a
    descriptive error, not a KeyError inside the actor."""
    import ray.data

    from fulltextsearch_ray.functions.highlight import HighlightStage

    tbl = pa.table(
        {
            "doc_id": pa.array([1, 2], pa.int64()),
            "text": pa.array(["apple banana", "banana cherry"], pa.string()),
        }
    )
    idx = str(tmp_path / "idx")
    build_index(
        ray.data.from_arrow(tbl), idx, text_col="text", doc_id_col="doc_id",
        num_buckets=2, overwrite=True, store_forward=False,  # no forward rows
    )
    import ray as _ray

    hits = pa.table(
        {"doc_id": pa.array([1], pa.int64()), "token_ids": pa.array([[1]], pa.list_(pa.int64()))}
    )
    stage = HighlightStage(_ray.put(hits), idx)
    with pytest.raises(Exception, match="forward-store|store_forward"):
        stage(tbl)


def _old_merge_runs_batch(batch: pa.Table, block_cf: int) -> pa.Table:
    """Round-3 reference implementation of merge_runs_batch (per-term
    Python loop) — kept in-test to pin the vectorized rewrite."""
    import numpy as np

    from fulltextsearch_ray.stages.invert import merge_posting_runs

    n = batch.num_rows
    if n == 0:
        return batch
    terms = batch["term"]
    if isinstance(terms, pa.ChunkedArray):
        terms = terms.combine_chunks()
    codes = np.asarray(
        terms.dictionary_encode().indices.to_numpy(zero_copy_only=False), dtype=np.int64
    )
    change = np.empty(n, dtype=bool)
    change[0] = True
    np.not_equal(codes[1:], codes[:-1], out=change[1:])
    starts = np.flatnonzero(change)
    counts = np.diff(np.r_[starts, n])
    single = counts == 1
    out_tables = []
    if single.all():
        return batch
    keep_mask = np.repeat(single, counts)
    if keep_mask.any():
        out_tables.append(batch.filter(pa.array(keep_mask)))
    for s, c in zip(starts[~single], counts[~single]):
        out_tables.append(merge_posting_runs(batch.slice(int(s), int(c)), block_cf=block_cf))
    return pa.concat_tables(out_tables).combine_chunks()


def _canon(t: pa.Table) -> pa.Table:
    import pyarrow.compute as pc

    idx = pc.sort_indices(
        t, sort_keys=[("term", "ascending"), ("first_doc", "ascending"), ("block_id", "ascending")]
    )
    return t.combine_chunks().take(idx)


def test_merge_runs_batch_matches_old_implementation_randomized():
    """Property: the round-4 vectorized merge_runs_batch is
    bit-identical to the per-term round-3 implementation across random
    shapes — fragmented terms (coalesce), hot terms (> block_cf
    metadata renumber), single-run terms, MULTI-FIELD overlapping runs
    (slow path), and doc-stats sentinel rows."""
    import numpy as np

    from fulltextsearch_ray.stages.invert import (
        InvertStage,
        encode_docstats_row,
        merge_runs_batch,
    )

    rng = np.random.default_rng(42)
    for trial in range(6):
        block_cf = int(rng.choice([8, 64, 1 << 16]))
        run_tables = []
        # several "input batches": disjoint doc ranges per batch, with
        # a multi-field column so some terms genuinely overlap at the
        # boundary (slow path)
        stage = InvertStage(
            text_col="a", text_cols=["a", "b"], doc_id_col="doc_id",
            num_buckets=4, block_cf=block_cf, emit_docstats=False,
        )
        vocab = [f"t{j}" for j in range(int(rng.integers(3, 12)))]
        base = 1
        for _ in range(int(rng.integers(2, 6))):
            n_docs = int(rng.integers(1, 30))
            mk = lambda: [
                " ".join(rng.choice(vocab, size=rng.integers(0, 12)).tolist())
                for _ in range(n_docs)
            ]
            tbl = pa.table(
                {
                    "doc_id": pa.array(range(base, base + n_docs), pa.int64()),
                    "a": pa.array(mk(), pa.string()),
                    "b": pa.array(mk(), pa.string()),
                }
            )
            # boundary overlap: next batch REUSES the last doc id so a
            # term can straddle (equal boundary docs -> slow path)
            base += n_docs - (1 if rng.random() < 0.5 and n_docs > 1 else 0)
            run_tables.append(stage(tbl))
        sent = pa.table(
            {
                k: pa.array([v], type=run_tables[0].schema.field(k).type)
                for k, v in encode_docstats_row(
                    np.array([base + 10], dtype=np.uint64),
                    np.array([5], dtype=np.int64), ["0" * 64], 5,
                ).items()
            }
        )
        allruns = pa.concat_tables(run_tables + [sent])
        # simulate the sort shuffle: stable sort by term only
        import pyarrow.compute as pc

        allruns = allruns.take(pc.sort_indices(allruns, sort_keys=[("term", "ascending")]))
        got = _canon(merge_runs_batch(allruns, block_cf=block_cf))
        want = _canon(_old_merge_runs_batch(allruns, block_cf=block_cf))
        assert got.equals(want), f"trial {trial} (block_cf={block_cf}) diverged"
