"""stages/invert.py: the posting encoder and the run merge.

``encode_posting_rows`` (the one engine encoder: the invert and the
merge of overlapping runs write blocks through it) and
``merge_runs_batch`` (which splices doc-disjoint runs from their bytes)
are pinned against a SCALAR ORACLE kept in this file: a per-term,
per-block Python loop that encodes each greedy doc-snapped chunk with
``codecs.encode_posting_block`` and merges one term's runs at a time
(decode each row with ``codecs.decode_posting_block``, lexsort,
re-chunk).  The oracle is a test reference, not an engine path.
"""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fulltextsearch_ray.codecs import decode_posting_block, encode_posting_block
from fulltextsearch_ray.stages.invert import (
    DOCSTATS_TERM_PREFIX,
    InvertStage,
    encode_docstats_row,
    encode_posting_rows,
    merge_runs_batch,
)
from fulltextsearch_ray.state.index import POSTINGS_SCHEMA
from fulltextsearch_ray.tokenizer import DEFAULT_FIELD_ID

# ---------------------------------------------------------------------------
# scalar oracle
# ---------------------------------------------------------------------------


def scalar_posting_rows(terms, bounds, occ_docs, occ_fields, occ_tokens, block_cf):
    """Per-term greedy chunk loop: cut at the last doc start ≤ s +
    block_cf, else the last entry start, else mid-entry at the cap; one
    ``encode_posting_block`` per block."""
    cols = {k: [] for k in POSTINGS_SCHEMA.names}
    for i, term in enumerate(terms):
        lo, hi = int(bounds[i]), int(bounds[i + 1])
        d, f = occ_docs[lo:hi], occ_fields[lo:hi]
        echange = np.r_[True, (d[1:] != d[:-1]) | (f[1:] != f[:-1])]
        dchange = np.r_[True, d[1:] != d[:-1]]
        entry_starts = np.flatnonzero(echange) + lo
        doc_starts = np.flatnonzero(dchange) + lo
        s, block_id = lo, 0
        while s < hi:
            cap = s + block_cf
            if cap >= hi:
                e = hi
            else:
                e = int(doc_starts[np.searchsorted(doc_starts, cap, side="right") - 1])
                if e <= s:
                    e = int(entry_starts[np.searchsorted(entry_starts, cap, side="right") - 1])
                    if e <= s:
                        e = cap
            blk = encode_posting_block(occ_docs[s:e], occ_fields[s:e], occ_tokens[s:e])
            blk_docs = occ_docs[s:e]
            cols["term"].append(term)
            cols["bucket"].append(0)
            cols["block_id"].append(block_id)
            cols["first_doc"].append(blk.first_doc)
            cols["last_doc"].append(blk.last_doc)
            cols["df"].append(blk.df)
            cols["cf"].append(blk.cf)
            cols["max_tf"].append(blk.max_tf)
            cols["n_docs"].append(1 + int(np.count_nonzero(blk_docs[1:] != blk_docs[:-1])))
            cols["docs"].append(blk.docs)
            cols["fields"].append(blk.fields)
            cols["tfs"].append(blk.tfs)
            cols["positions"].append(blk.positions)
            block_id += 1
            s = e
    return pa.table(
        {k: pa.array(cols[k], type=POSTINGS_SCHEMA.field(k).type) for k in POSTINGS_SCHEMA.names}
    )


def scalar_merge_term(group: pa.Table, block_cf: int) -> pa.Table:
    """All runs of ONE term: disjoint runs with total cf > block_cf keep
    their payloads and renumber; otherwise decode every row, lexsort
    (when runs overlap) and re-chunk."""
    if group["term"][0].as_py().startswith(DOCSTATS_TERM_PREFIX):
        return group
    order = np.lexsort((group["block_id"].to_numpy(), group["first_doc"].to_numpy()))
    group = group.take(pa.array(order))
    first = group["first_doc"].to_numpy()
    last = group["last_doc"].to_numpy()
    n = group.num_rows
    disjoint = bool((last[:-1] < first[1:]).all())
    if disjoint and pc.sum(group["cf"]).as_py() > block_cf:
        return group.set_column(
            group.schema.get_field_index("block_id"), "block_id",
            pa.array(np.arange(n, dtype=np.int32)),
        )
    parts = [
        decode_posting_block(*(group[c][i].as_py() for c in ("docs", "fields", "tfs", "positions")))[:3]
        for i in range(n)
    ]
    docs, fields, tokens = (np.concatenate(x) for x in zip(*parts))
    if not disjoint:
        o = np.lexsort((tokens, fields, docs))
        docs, fields, tokens = docs[o], fields[o], tokens[o]
    return scalar_posting_rows(
        [group["term"][0].as_py()], [0, len(docs)], docs, fields, tokens, block_cf,
    )


def scalar_merge_runs_batch(batch: pa.Table, block_cf: int) -> pa.Table:
    """Single-run terms pass through; every other term merges alone."""
    terms = np.asarray(batch["term"].to_pylist(), dtype=object)
    starts = np.flatnonzero(np.r_[True, terms[1:] != terms[:-1]])
    counts = np.diff(np.r_[starts, len(terms)])
    out = [batch.filter(pa.array(np.repeat(counts == 1, counts)))]
    for s, c in zip(starts[counts > 1], counts[counts > 1]):
        out.append(scalar_merge_term(batch.slice(int(s), int(c)), block_cf))
    return pa.concat_tables(out).combine_chunks()


def _canon(t: pa.Table) -> pa.Table:
    idx = pc.sort_indices(
        t, sort_keys=[("term", "ascending"), ("first_doc", "ascending"), ("block_id", "ascending")]
    )
    return t.combine_chunks().take(idx)


def _stream(term_entries):
    """[[(doc, field, tf, pos0), ...] per term] → (term names, bounds,
    occ_docs, occ_fields, occ_tokens); entries must be (doc,
    field)-sorted per term, positions pos0, pos0+3, ..."""
    docs, fields, tokens, bounds = [], [], [], [0]
    for entries in term_entries:
        for d, f, tf, p0 in entries:
            docs += [d] * tf
            fields += [f] * tf
            tokens += range(p0, p0 + 3 * tf, 3)
        bounds.append(len(docs))
    names = np.array([f"t{i:02d}" for i in range(len(term_entries))], dtype=object)
    return (
        names, np.array(bounds, dtype=np.int64), np.array(docs, dtype=np.uint64),
        np.array(fields, dtype=np.uint64), np.array(tokens, dtype=np.uint64),
    )


# ---------------------------------------------------------------------------
# encoder
# ---------------------------------------------------------------------------


def _encode_one(occ_docs, occ_fields, occ_tokens, block_cf):
    return encode_posting_rows(
        pa.array(["t"]), np.array([0, len(occ_docs)], dtype=np.int64),
        occ_docs, occ_fields, occ_tokens, block_cf,
    )


def test_block_chunking_snaps_to_doc_boundaries():
    """A multi-field doc whose entries straddle the block_cf point must
    NOT split across blocks: per-block n_docs counts sum to the true
    unique-doc df."""
    # doc 1: 2 occurrences; doc 2: field1 ×2 + field2 ×2.  block_cf=4
    # lands exactly BETWEEN doc 2's two field entries — entry-boundary
    # snapping would split doc 2 across blocks (counting it twice);
    # doc-boundary snapping moves the chunk point back to doc 2's start.
    occ_docs = np.array([1, 1, 2, 2, 2, 2], dtype=np.uint64)
    occ_fields = np.array([1, 1, 1, 1, 2, 2], dtype=np.uint64)
    occ_tokens = np.array([1, 2, 1, 2, 1, 2], dtype=np.uint64)
    tbl = _encode_one(occ_docs, occ_fields, occ_tokens, block_cf=4)
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
    tbl = _encode_one(occ_docs, occ_fields, occ_tokens, block_cf=4)
    assert tbl.num_rows == 3  # 4+4+2 occurrences
    assert tbl["cf"].to_pylist() == [4, 4, 2]


@st.composite
def _term_entries(draw, single_field=None):
    if single_field is None:
        single_field = draw(st.booleans())
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        entries = []
        for d in sorted(draw(st.sets(st.integers(1, 60), min_size=1, max_size=6))):
            fids = [DEFAULT_FIELD_ID] if single_field else sorted(
                draw(st.sets(st.integers(1, 3), min_size=1, max_size=3))
            )
            for f in fids:
                entries.append((d, f, draw(st.integers(1, 10)), draw(st.integers(1, 1 << 20))))
        terms.append(entries)
    return single_field, terms


@settings(max_examples=300, deadline=None)
@given(_term_entries(), st.sampled_from([1, 2, 3, 4, 8]))
# a multi-field doc straddling the cap
@example((False, [[(1, 1, 2, 1), (2, 1, 2, 1), (2, 2, 2, 1), (3, 2, 1, 9)]]), 4)
# one doc larger than block_cf whose entries each fit
@example((False, [[(1, 1, 3, 1), (1, 2, 3, 1), (2, 1, 1, 5)], [(4, 3, 2, 2)]]), 4)
# one entry larger than block_cf (single-field stream)
@example((True, [[(1, 1, 1, 5), (2, 1, 9, 1), (3, 1, 1, 1)]]), 4)
def test_encoder_matches_scalar_oracle(entries, block_cf):
    single_field, terms = entries
    names, bounds, docs, fields, tokens = _stream(terms)
    got = encode_posting_rows(
        pa.array(names, pa.string()), bounds, docs, None if single_field else fields, tokens, block_cf,
    )
    want = scalar_posting_rows(names, bounds, docs, fields, tokens, block_cf)
    assert got.equals(want)
    assert (got["cf"].to_numpy() <= block_cf).all()
    for name, term in zip(names, terms):
        per_doc: dict = {}
        for d, _f, tf, _p in term:
            per_doc[d] = per_doc.get(d, 0) + tf
        if max(per_doc.values()) <= block_cf:
            rows = pc.equal(got["term"], name)
            assert pc.sum(got.filter(rows)["n_docs"]).as_py() == len(per_doc)


# ---------------------------------------------------------------------------
# merge
# ---------------------------------------------------------------------------


def _run(docs, tf_each):
    """One posting run for term 't': each doc gets tf_each occurrences."""
    occ_docs = np.repeat(np.asarray(docs, dtype=np.uint64), tf_each)
    occ_fields = np.full(len(occ_docs), 1, dtype=np.uint64)
    occ_tokens = np.concatenate([np.arange(1, tf_each + 1, dtype=np.uint64) for _ in docs])
    return scalar_posting_rows(
        ["t"], [0, len(occ_docs)], occ_docs, occ_fields, occ_tokens, block_cf=1 << 16,
    )


def test_merge_overlapping_runs_entry_snapped_blocks():
    # runs with OVERLAPPING doc ranges force the decode+re-encode path;
    # tf=3 per doc with block_cf=4 snaps every chunk back to an entry
    # boundary → 4 blocks of cf=3, not ceil(12/4)=3 blocks.
    group = pa.concat_tables([_run([1, 3], 3), _run([2, 4], 3)])
    merged = merge_runs_batch(group, block_cf=4)
    assert merged.num_rows == 4  # > ceil(12/4): the old crash case
    assert merged["bucket"].to_pylist() == [0] * 4
    all_docs = []
    for i in range(merged.num_rows):
        d, _f, _t, *_ = decode_posting_block(
            merged["docs"][i].as_py(), merged["fields"][i].as_py(),
            merged["tfs"][i].as_py(), merged["positions"][i].as_py(),
        )
        all_docs.extend(d.tolist())
    assert all_docs == [1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4]


def test_merge_runs_batch_matches_old_implementation_randomized():
    """Property: the vectorized merge_runs_batch is bit-identical to the
    per-term scalar merge across random shapes — fragmented terms
    (coalesce), hot terms (> block_cf metadata renumber), single-run
    terms, MULTI-FIELD overlapping runs, and doc-stats sentinel rows."""
    rng = np.random.default_rng(42)
    for trial in range(6):
        block_cf = int(rng.choice([8, 64, 1 << 16]))
        run_tables = []
        # several "input batches": disjoint doc ranges per batch, with
        # a multi-field column so some terms genuinely overlap at the
        # boundary
        stage = InvertStage(
            text_col="a", text_cols=["a", "b"], doc_id_col="doc_id",
            block_cf=block_cf, emit_docstats=False,
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
            # term can straddle (equal boundary docs -> overlapping runs)
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
        allruns = allruns.take(pc.sort_indices(allruns, sort_keys=[("term", "ascending")]))
        got = _canon(merge_runs_batch(allruns, block_cf=block_cf))
        want = _canon(scalar_merge_runs_batch(allruns, block_cf=block_cf))
        assert got.equals(want), f"trial {trial} (block_cf={block_cf}) diverged"


@st.composite
def _term_runs(draw):
    """Each term's entries cut into runs at random entry boundaries (a
    cut inside a doc makes two runs share a boundary doc: overlap)."""
    _single, terms = draw(_term_entries(single_field=False))
    out = []
    for term in terms:
        cuts = draw(st.lists(st.booleans(), min_size=len(term) - 1, max_size=len(term) - 1))
        runs, start = [], 0
        for i in range(len(term)):
            if i == len(term) - 1 or cuts[i]:
                runs.append(term[start : i + 1])
                start = i + 1
        out.append(runs)
    return out


def _shuffled_runs(term_runs, run_cf: int, seed: int) -> pa.Table:
    """The runs of every term, each encoded at ``run_cf`` (several
    blocks when it is small), in random row order and then sorted by
    term only, as the shuffle delivers them."""
    runs = []
    for t, term in enumerate(term_runs):
        for entries in term:
            _names, bounds, docs, fields, tokens = _stream([entries])
            runs.append(scalar_posting_rows([f"t{t:02d}"], bounds, docs, fields, tokens, run_cf))
    allruns = pa.concat_tables(runs)
    perm = np.random.default_rng(seed).permutation(allruns.num_rows)
    allruns = allruns.take(pa.array(perm))
    return allruns.take(pc.sort_indices(allruns, sort_keys=[("term", "ascending")]))


@settings(max_examples=150, deadline=None)
@given(_term_runs(), st.sampled_from([1, 2, 3, 4, 8, 64, 1 << 16]),
       st.sampled_from([8, 1 << 16]), st.integers(0, 2**32 - 1))
# disjoint runs whose doc gap varint is narrower than the absolute id
# it replaces (ids 127/128 and 16383/16384 change the byte width)
@example([[[(100, 1, 2, 1)], [(127, 1, 1, 5)], [(128, 1, 3, 2)],
           [(16383, 1, 1, 1)], [(16384, 1, 2, 7)], [(2**21, 1, 1, 1)]]], 1 << 16, 1 << 16, 0)
# multi-field disjoint runs, next to a term whose runs overlap
@example([[[(1, 1, 2, 1), (1, 2, 1, 4)], [(3, 2, 2, 1), (3, 3, 1, 1)], [(7, 1, 1, 1)]],
          [[(2, 1, 1, 1), (2, 2, 1, 1)], [(2, 3, 2, 1)]]], 64, 1 << 16, 1)
# a run of several blocks of one segment (encoded at block_cf 8) plus
# a later run, merged into one block
@example([[[(d, 1, 3, 1) for d in range(1, 11)], [(200, 2, 1, 1)]]], 1 << 16, 8, 2)
def test_merge_matches_scalar_oracle(term_runs, block_cf, run_cf, seed):
    allruns = _shuffled_runs(term_runs, run_cf, seed)
    got = merge_runs_batch(allruns, block_cf=block_cf)
    assert got.equals(_canon(got))  # already (term, first_doc, block_id)-sorted
    assert _canon(got).equals(_canon(scalar_merge_runs_batch(allruns, block_cf)))


def test_disjoint_runs_merge_without_reencoding(monkeypatch):
    """Doc-disjoint fragmented runs splice their bytes: the merge calls
    the encoder zero times.  Runs that overlap at a boundary doc still
    decode and re-encode."""
    import fulltextsearch_ray.stages.invert as invert

    calls = []

    def counting(*args, **kw):
        calls.append(1)
        return encode_posting_rows(*args, **kw)

    monkeypatch.setattr(invert, "encode_posting_rows", counting)
    disjoint = _shuffled_runs(
        [[[(1, 1, 2, 1)], [(5, 1, 1, 1), (5, 2, 2, 4)], [(300, 1, 1, 1)]],
         [[(2, 1, 1, 1)], [(9, 3, 1, 1)]]], 1 << 16, 0,
    )
    merged = merge_runs_batch(disjoint, block_cf=1 << 16)
    assert not calls
    assert merged.num_rows == 2
    assert _canon(merged).equals(_canon(scalar_merge_runs_batch(disjoint, 1 << 16)))
    overlapping = _shuffled_runs([[[(1, 1, 2, 1)], [(1, 2, 1, 1)]]], 1 << 16, 0)
    merge_runs_batch(overlapping, block_cf=1 << 16)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# invert: term order
# ---------------------------------------------------------------------------


def _python_sorted_rows(texts, doc_ids, block_cf=1 << 16):
    """The runs of one invert call with the occurrences ordered by a
    Python ``sorted`` over (term, doc, token): the order the invert's
    byte-order vocab sort and radix rank sort must reproduce."""
    from fulltextsearch_ray.tokenizer import tokenize_batch

    tok = tokenize_batch(texts)
    terms = tok.terms.to_pylist()
    occ_docs = doc_ids[tok.doc_index]
    occ_tokens = tok.token_ids
    order = sorted(range(len(terms)), key=lambda i: (terms[i], int(occ_docs[i]), int(occ_tokens[i])))
    vocab = sorted(set(terms))
    per_term = {t: 0 for t in vocab}
    for t in terms:
        per_term[t] += 1
    bounds = np.r_[0, np.cumsum([per_term[t] for t in vocab])].astype(np.int64)
    return encode_posting_rows(
        pa.array(vocab, pa.string()), bounds, occ_docs[order], None, occ_tokens[order], block_cf,
    )


def _invert(texts, doc_ids):
    batch = pa.table({"doc_id": pa.array(doc_ids, pa.uint64()), "text": pa.array(texts, pa.string())})
    return InvertStage(text_col="text", doc_id_col="doc_id")(batch)


def test_invert_over_65536_terms_matches_python_order():
    """More distinct terms than a uint16 rank holds: ``uint32`` ranks.  Terms mix ASCII and non-ASCII, and repeat across docs."""
    rng = np.random.default_rng(7)
    vocab = [f"w{i:05x}" for i in range(66_000)] + [f"é{i}" for i in range(300)] + [
        f"\U00011f04{i}" for i in range(300)
    ]
    picks = np.concatenate([rng.permutation(len(vocab)), rng.integers(0, len(vocab), 20_000)])
    texts = [" ".join(vocab[j] for j in chunk) for chunk in np.array_split(picks, 400)]
    doc_ids = np.arange(1, len(texts) + 1, dtype=np.uint64)
    got = _invert(texts, doc_ids)
    assert got.num_rows == len(vocab) > 1 << 16
    assert got.equals(_python_sorted_rows(texts, doc_ids))


def test_invert_non_ascii_terms_match_python_order():
    """Non-ASCII terms sort by code point, as Python ``str`` does:
    Latin-1, BMP and astral letters, a letter that sorts past U+FFFF
    only by its second char, and lowercasings that land on ASCII."""
    words = ["zoë", "zoe", "über", "ubar", "中文", "ﾊ", "a\U00011f04", "aￜ",
             "İstanbul", "Kelvin", "kelvin", "ǆ", "straße", "stra", "ab́c"]
    rng = np.random.default_rng(3)
    texts = [" ".join(rng.choice(words, size=12)) for _ in range(40)]
    doc_ids = np.arange(1, len(texts) + 1, dtype=np.uint64)
    got = _invert(texts, doc_ids)
    assert got.equals(_python_sorted_rows(texts, doc_ids))
    assert got["term"].to_pylist() == sorted(set(got["term"].to_pylist()))
