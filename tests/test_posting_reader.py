"""Posting reads: a lookup is one positional read of the term's
payload record at its catalog address.

Covers differential checks: every term's postings as the searcher
decodes them (one ``pread`` and one ``varint_decode`` per record) equal
``decode_posting_columns`` over the whole posting rows
``read_postings_dataset`` reads back from catalog + blob, eager and
paged catalogs alike, over a two-segment index, its compaction, a
multi-field index and a record of 150 blocks.  An index written before
payload blobs (payloads inline in a postings parquet file, unsorted
rows, catalogs without address columns, a header of format 1), of one
segment or of two, is refused by the searcher and by an incremental
build with an error naming ``compact_index``, and after
``compact_index`` serves the same answers as the fresh index.
Corrupt blobs (truncated, lengths that disagree, a region boundary
inside a varint, region counts that disagree with the header, records
that disagree with their catalog row) raise ValueError naming the file
and the term, by address and in the whole-row read.  The layout side:
``merge_runs_batch`` returns rows in (term, first_doc, block_id) order,
and ``build_index`` / ``compact_index`` write term-sorted catalog
files.  Also the cold-start contract: a searcher built from manifest
stats opens no parquet footer and no blob.
"""

import glob
import hashlib
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from fulltextsearch_ray.codecs import decode_posting_columns, varint_decode, varint_encode
from fulltextsearch_ray.pipelines import build as build_mod
from fulltextsearch_ray.pipelines.build import build_index, compact_index
from fulltextsearch_ray.pipelines.query import IndexSearcher
from fulltextsearch_ray.stages.invert import (
    DOCSTATS_TERM_PREFIX,
    InvertStage,
    encode_docstats_row,
    merge_runs_batch,
)
from fulltextsearch_ray.state.index import (
    POSTINGS_SCHEMA,
    load_manifest,
    load_meta,
    save_manifest,
    segment_dir,
)
from fulltextsearch_ray.state.payloads import (
    ADDRESS_COLS,
    PAYLOAD_DIR,
    decode_record,
    predates_blobs,
    read_blob_rows,
)
from fulltextsearch_ray.tokenizer import tokenize


def _build_two_segments(idx):
    """Base segment of 400 docs, then a delta segment of 200 docs that
    all carry the stop word 'the' (several times): with small blocks and
    batches its runs exceed block_cf — the hot merge category — while
    the 'termN' words take the fragment category and each delta doc's
    own 'uniqN' word passes through as a single run."""
    import ray.data

    rng = np.random.default_rng(7)
    vocab = [f"term{i}" for i in range(300)]
    base = [" ".join(rng.choice(vocab, size=12)) for _ in range(400)]
    delta = [
        f"uniq{i} " + "the " * 3 + " ".join(rng.choice(vocab[:40], size=6)) for i in range(200)
    ]
    ids = np.arange(1, len(base) + len(delta) + 1, dtype=np.uint64)
    kw = dict(doc_id_col="doc_id", block_cf=64, batch_size=50)
    build_index(
        ray.data.from_arrow(pa.table({"doc_id": ids[: len(base)], "text": base})), idx,
        overwrite=True, **kw,
    )
    build_index(
        ray.data.from_arrow(pa.table({"doc_id": ids[len(base):], "text": delta})), idx, **kw
    )
    return idx


@pytest.fixture(scope="module")
def two_segment_index(ray_session, tmp_path_factory):
    return _build_two_segments(str(tmp_path_factory.mktemp("two_seg")))


@pytest.fixture(scope="module")
def compacted_index(two_segment_index, tmp_path_factory):
    """``two_segment_index`` after ``compact_index``: one segment."""
    idx = str(tmp_path_factory.mktemp("compacted") / "idx")
    shutil.copytree(two_segment_index, idx)
    compact_index(idx, block_cf=64)
    return idx


@pytest.fixture(scope="module")
def multi_field_index(ray_session, tmp_path_factory):
    """Two text fields: field 'b' holds words of its own and some of
    field 'a''s, so records mix blocks whose entries are all field 1
    (fields payload stored empty) with blocks that store one."""
    import ray.data

    rng = np.random.default_rng(5)
    vocab = [f"term{i}" for i in range(60)]
    a = [" ".join(rng.choice(vocab, size=8)) for _ in range(300)]
    b = [" ".join(rng.choice(vocab[:10], size=3)) if i % 7 == 0 else "" for i in range(300)]
    idx = str(tmp_path_factory.mktemp("multi_field") / "idx")
    build_index(
        ray.data.from_arrow(pa.table({"doc_id": np.arange(1, 301, dtype=np.uint64), "a": a, "b": b})),
        idx, text_cols=["a", "b"], doc_id_col="doc_id", block_cf=16, batch_size=100, overwrite=True,
    )
    return idx


@pytest.fixture(scope="module")
def many_block_index(ray_session, tmp_path_factory):
    """``block_cf=2`` over 300 docs that each hold 'common' once: its
    record has 150 blocks, so the block count takes two varint bytes."""
    import ray.data

    rng = np.random.default_rng(3)
    text = [f"common {' '.join(rng.choice(['x', 'y', 'z'], size=2))}" for _ in range(300)]
    idx = str(tmp_path_factory.mktemp("many_block") / "idx")
    build_index(
        ray.data.from_arrow(pa.table({"doc_id": np.arange(1, 301, dtype=np.uint64), "text": text})),
        idx, doc_id_col="doc_id", block_cf=2, batch_size=100, overwrite=True,
    )
    return idx


QUERIES = ("the term3", "uniq5 term7 term39", "term0 term1 term2 the", "the uniq7 uniq9 term12")


def _to_pre_blob_layout(idx):
    """Rewrite ``idx`` in place in the layout indexes had before payload
    blobs: a postings parquet file per catalog file whose rows carry
    their payloads inline, with one doc-stats sentinel row per docs file
    among them, shuffled out of term order in 4,096-row groups the way
    the category-concatenating merge wrote them; no payloads directory,
    catalogs without address columns, manifests that carry the
    postings run catalog (``file_ranges``, ``num_buckets``), and a
    header of format 1."""
    rng = np.random.default_rng(11)
    for seg in load_meta(idx).segments:
        segp = segment_dir(idx, seg)
        sentinels = []
        for p in glob.glob(os.path.join(segp, "docs", "*.parquet")):
            d = pq.read_table(p)
            lens = d["doc_len"].to_numpy()
            row = encode_docstats_row(d["doc_id"].to_numpy(), lens, d["sha256"].to_pylist(), lens.sum())
            sentinels.append(pa.Table.from_pylist([row], schema=POSTINGS_SCHEMA))
        ranges = []
        os.makedirs(os.path.join(segp, "postings"))
        for p in sorted(glob.glob(os.path.join(segp, "catalog", "*.parquet"))):
            cat = pq.read_table(p)
            t = pa.concat_tables([read_blob_rows(cat, segp)] + sentinels)
            sentinels = []
            post = os.path.join(segp, "postings", os.path.basename(p))
            ranges.append([os.path.relpath(post, segp), pc.min(t["term"]).as_py(), pc.max(t["term"]).as_py()])
            pq.write_table(t.take(rng.permutation(t.num_rows)), post, row_group_size=4096)
            pq.write_table(cat.drop_columns(ADDRESS_COLS), p)
        shutil.rmtree(os.path.join(segp, PAYLOAD_DIR))
        man = load_manifest(idx, seg)
        man.catalog_stats = build_mod._scan_table_stats(os.path.join(segp, "catalog"), segp)
        save_manifest(idx, man)
        mpath = os.path.join(segp, "manifest.json")
        with open(mpath) as f:
            d = json.load(f)
        d.update(file_ranges=ranges, num_buckets=4)
        with open(mpath, "w") as f:
            json.dump(d, f)
    mpath = os.path.join(idx, "meta.json")
    with open(mpath) as f:
        d = json.load(f)
    with open(mpath, "w") as f:
        json.dump({**d, "version": 1}, f)
    return idx


@pytest.fixture(scope="module")
def legacy_indexes(two_segment_index, compacted_index, tmp_path_factory):
    """The fresh two-segment index and its one-segment compaction, each
    rewritten in the pre-blob layout."""
    root = tmp_path_factory.mktemp("legacy")
    out = {}
    for kind, src in (("two", two_segment_index), ("one", compacted_index)):
        out[kind] = str(root / kind)
        shutil.copytree(src, out[kind])
        _to_pre_blob_layout(out[kind])
    return out


@pytest.fixture(scope="module")
def compacted_legacy(legacy_indexes, tmp_path_factory):
    """Each pre-blob index of ``legacy_indexes`` after ``compact_index``."""
    root = tmp_path_factory.mktemp("compacted_legacy")
    out = {}
    for kind, src in legacy_indexes.items():
        out[kind] = str(root / kind)
        shutil.copytree(src, out[kind])
        compact_index(out[kind], block_cf=64)
    return out


def _unsorted_files(idx) -> int:
    """Catalog files of ``idx`` whose rows are not in term order."""
    n = 0
    for seg in load_meta(idx).segments:
        for p in glob.glob(os.path.join(segment_dir(idx, seg), "catalog", "*.parquet")):
            terms = pq.read_table(p, columns=["term"])["term"].to_pylist()
            n += terms != sorted(terms)
    return n


def _assert_decodes_as(got, rows, with_positions, msg):
    """``got``, one :class:`TermPostings`, equals
    ``decode_posting_columns`` over the whole posting ``rows`` of its
    term, in decode order: the block headers, the per-entry (docs, tfs)
    and, with positions, the occurrences."""
    want = decode_posting_columns(
        *(rows[c].to_pylist() for c in ("docs", "fields", "tfs", "positions")),
        rows["df"].to_numpy(),
    )
    assert got.dfs.tolist() == rows["df"].to_pylist(), msg
    assert got.firsts.tolist() == rows["first_doc"].to_pylist(), msg
    assert got.lasts.tolist() == rows["last_doc"].to_pylist(), msg
    np.testing.assert_array_equal(got.docs, want[0], err_msg=msg)
    np.testing.assert_array_equal(got.tfs, want[2], err_msg=msg)
    if not with_positions:
        assert got.occurrences is None, msg
        return
    for g, w in zip(got.occurrences, want[3:]):
        np.testing.assert_array_equal(g, w, err_msg=msg)


def _assert_matches_whole_row_read(s) -> int:
    """Every term's postings as ``s`` decodes them — a blob record at
    its catalog address, one varint pass — equal ``decode_posting_columns``
    over the whole posting rows of its segment (``read_postings_dataset``:
    catalog + blob) filtered to the term, segment by segment.  Returns
    the largest block count of a record."""
    whole = {
        seg: pa.concat_tables(build_mod.read_postings_dataset(s.index_dir, [seg]).iter_batches(
            batch_format="pyarrow", batch_size=None))
        for seg in s.segments
    }
    most = 0
    for term in IndexSearcher(s.index_dir).terms.to_pylist():
        want = []
        for seg in s.segments:
            rows = whole[seg].filter(pc.equal(whole[seg]["term"], term))
            if rows.num_rows:
                want.append(rows.sort_by([("first_doc", "ascending"), ("block_id", "ascending")]))
                most = max(most, rows.num_rows)
        for with_positions in (False, True):
            got = s._term_postings(term, with_positions)
            assert len(got) == len(want), term
            for g, w in zip(got, want):
                _assert_decodes_as(g, w, with_positions, (term, with_positions))
    return most


def test_reader_matches_dataset_filter_read(two_segment_index, compacted_index):
    s = IndexSearcher(two_segment_index)
    assert len(s.segments) == 2
    assert "the" in s.terms.to_pylist()
    # a fresh build and a compaction write term-sorted catalog files and
    # no postings parquet file
    for idx in (two_segment_index, compacted_index):
        assert _unsorted_files(idx) == 0
        assert not glob.glob(os.path.join(idx, "**", "postings"), recursive=True)
    _assert_matches_whole_row_read(s)
    _assert_matches_whole_row_read(IndexSearcher(two_segment_index, catalog_budget_rows=0))
    _assert_matches_whole_row_read(IndexSearcher(compacted_index))


def test_reader_matches_whole_rows_multi_field_and_many_blocks(multi_field_index, many_block_index):
    """The by-address decode over records that store fields payloads
    (next to elided ones) and over a record of 150 blocks."""
    _assert_matches_whole_row_read(IndexSearcher(multi_field_index))
    rows = pa.concat_tables(build_mod.read_postings_dataset(
        multi_field_index, load_meta(multi_field_index).segments,
    ).iter_batches(batch_format="pyarrow", batch_size=None)).to_pydict()
    field_one = {}
    for term, f, df in zip(rows["term"], rows["fields"], rows["df"]):
        field_one.setdefault(term, set()).add(f == b"\x01" * df)
    assert {True, False} in field_one.values()  # a record of both kinds of block
    assert _assert_matches_whole_row_read(IndexSearcher(many_block_index)) >= 128


def _assert_same_answers(got: IndexSearcher, want: IndexSearcher, terms):
    for term in terms:
        for g, w in zip(got.get_doc_tfs(term), want.get_doc_tfs(term)):
            np.testing.assert_array_equal(g, w, err_msg=term)
        g, w = got.get_postings(term), want.get_postings(term)
        for c in ("docs", "fields", "tokens"):
            np.testing.assert_array_equal(getattr(g, c), getattr(w, c), err_msg=term)
    for q in QUERIES:
        for k in (3, 10):
            assert got.bm25_topk(q, k=k).equals(want.bm25_topk(q, k=k)), (q, k)
            assert got.bm25_topk_pruned(tokenize(q), k=k).equals(
                want.bm25_topk_pruned(tokenize(q), k=k)
            ), (q, k)


def test_searcher_refuses_pre_blob_segments(legacy_indexes):
    """A pre-blob index fails loudly at open, eager and paged alike, and
    at an incremental build before it writes a segment, naming the
    index and the migration, instead of being served."""
    import ray.data

    for kind, idx in legacy_indexes.items():
        segs = os.listdir(os.path.join(idx, "segments"))
        assert len(segs) == (2 if kind == "two" else 1)
        for budget in (2_000_000, 0):
            with pytest.raises(ValueError, match=f"index {idx}: .*format 1.*compact_index"):
                IndexSearcher(idx, catalog_budget_rows=budget)
        delta = pa.table({"doc_id": np.array([9001], np.uint64), "text": ["late doc"]})
        with pytest.raises(ValueError, match="compact_index"):
            build_index(ray.data.from_arrow(delta), idx, doc_id_col="doc_id")
        assert sorted(os.listdir(os.path.join(idx, "segments"))) == sorted(segs)


def test_legacy_index_compacts_into_blobs(legacy_indexes, compacted_legacy):
    """``compact_index`` rewrites a pre-blob index of one segment or of
    two into one segment of payload blobs and term-sorted files; a
    second compaction of that one blob segment changes nothing."""
    for kind, idx in compacted_legacy.items():
        before = os.listdir(os.path.join(legacy_indexes[kind], "segments"))
        assert all(predates_blobs(build_mod._catalog_columns(legacy_indexes[kind], s)) for s in before)
        (seg,) = load_meta(idx).segments
        assert seg not in before
        assert not predates_blobs(build_mod._catalog_columns(idx, seg))
        assert os.listdir(os.path.join(segment_dir(idx, seg), PAYLOAD_DIR))
        assert _unsorted_files(idx) == 0
        assert compact_index(idx, block_cf=64).segments == [seg]


@pytest.mark.parametrize("budget", [2_000_000, 0], ids=["eager", "lazy"])
def test_compacted_legacy_matches_fresh(two_segment_index, compacted_legacy, budget):
    """Both compacted pre-blob indexes give the fresh index's postings
    and BM25 answers for every term, and pruned == exhaustive on them."""
    fresh = IndexSearcher(two_segment_index, catalog_budget_rows=budget)
    terms = IndexSearcher(two_segment_index).terms.to_pylist() + ["absent"]
    for idx in compacted_legacy.values():
        s = IndexSearcher(idx, catalog_budget_rows=budget)
        assert (s._lazy_cats is None) == (budget > 0)
        _assert_same_answers(s, fresh, terms)
        for q in QUERIES:
            for k in (3, 10):
                exact, pruned = s.bm25_topk(q, k=k), s.bm25_topk_pruned(tokenize(q), k=k)
                assert exact["doc_id"].to_pylist() == pruned["doc_id"].to_pylist(), (q, k)
                np.testing.assert_allclose(
                    pruned["score"].to_numpy(), exact["score"].to_numpy(), rtol=1e-12, atol=0
                )
        assert s.posting_reader.payload_reads > 0


def _mixed_runs():
    """Sort-shuffled posting runs that hit every ``merge_runs_batch``
    category at ``block_cf=64``: single runs ('uniqN'), hot 'the' (every
    delta doc carries it three times), fragmented 'termN', one
    multi-field doc split across two batches whose 'edge' runs share a
    boundary doc (the slow path), plus one doc-stats sentinel row per
    batch."""
    rng = np.random.default_rng(7)
    vocab = [f"term{i}" for i in range(300)]
    stage = InvertStage(
        text_col="a", text_cols=["a", "b"], doc_id_col="doc_id", block_cf=64, emit_docstats=True,
    )
    a = [" ".join(rng.choice(vocab, size=12)) for _ in range(200)]
    a += [f"uniq{i} " + "the " * 3 + " ".join(rng.choice(vocab[:40], size=6)) for i in range(100)]
    ids, b = list(range(1, 301)), [""] * 300
    runs = []
    for s in range(0, 300, 50):
        t = {"doc_id": ids[s:s + 50], "a": a[s:s + 50], "b": b[s:s + 50]}
        if s == 100:
            t["a"][-1] += " edge"
        if s == 150:  # doc 150 again, its second field
            t = {"doc_id": [150] + t["doc_id"], "a": [""] + t["a"], "b": ["edge"] + t["b"]}
        runs.append(stage(pa.table({
            "doc_id": pa.array(t["doc_id"], pa.int64()), "a": pa.array(t["a"]), "b": pa.array(t["b"]),
        })))
    allruns = pa.concat_tables(runs)
    return allruns.take(pc.sort_indices(allruns, sort_keys=[("term", "ascending")]))


def test_merge_runs_batch_output_is_term_sorted():
    runs = _mixed_runs()
    # every category is present in the input
    by_term = {}
    for term, first, last, cf in zip(*(runs[c].to_pylist() for c in ("term", "first_doc", "last_doc", "cf"))):
        by_term.setdefault(term, []).append((first, last, cf))
    cats = {}
    for term, rs in by_term.items():
        rs.sort()
        if term.startswith(DOCSTATS_TERM_PREFIX):
            cat = "sentinel"
        elif len(rs) == 1:
            cat = "single"
        elif any(x[1] >= y[0] for x, y in zip(rs, rs[1:])):
            cat = "slow"
        else:
            cat = "hot" if sum(r[2] for r in rs) > 64 else "fragment"
        cats.setdefault(cat, []).append(term)
    assert cats["slow"] == ["edge"] and cats["hot"] == ["the"]
    assert len(cats["fragment"]) > 100 and len(cats["single"]) > 100 and len(cats["sentinel"]) == 6

    out = merge_runs_batch(runs, block_cf=64)
    keys = list(zip(*(out[c].to_pylist() for c in ("term", "first_doc", "block_id"))))
    assert keys == sorted(keys)
    # the posting rows are those of the category-concatenating merge
    # this order replaced: sha256 of its output without the sentinel
    # rows and the bucket column, sorted the same way
    post = out.filter(pc.invert(pc.starts_with(out["term"], DOCSTATS_TERM_PREFIX)))
    digest = hashlib.sha256(repr(post.drop_columns(["bucket"]).to_pydict()).encode()).hexdigest()
    assert digest == "480b5494a5f5513e810a0c67d906c17b197717a58c29cb404ea9045a43ae24ce"
    assert out.num_rows - post.num_rows == 6
    # an input that is already single-run / sentinel only returns sorted too
    sub = runs.filter(pc.is_in(runs["term"], pa.array(cats["single"] + cats["sentinel"])))
    sub = sub.take(np.random.default_rng(0).permutation(sub.num_rows))
    got = merge_runs_batch(sub, block_cf=64)
    terms = got["term"].to_pylist()
    assert terms == sorted(terms) and got.num_rows == sub.num_rows


# -- payload reads: counters and loud errors ----------------------------------


def _encoded_rows(block_cf):
    """Term-sorted posting rows of three terms: 'a' in 300 docs (so
    ``block_cf=2`` cuts it into 150 blocks, a two-byte block count),
    'b' in one doc with three positions, 'c' in docs 2^40 and 2^40 + 5."""
    from fulltextsearch_ray.stages.invert import encode_posting_rows

    docs = np.r_[np.arange(1, 301), [7, 7, 7], [1 << 40, (1 << 40) + 5]].astype(np.uint64)
    tokens = np.r_[np.ones(300), [2, 5, 9], [1, 1]].astype(np.uint64)
    return encode_posting_rows(
        pa.array(["a", "b", "c"]), np.array([0, 300, 303, 305]),
        docs, None, tokens, block_cf,
    )


def _blob_and_catalog(rows, seg):
    """Write ``rows``' payload blob under ``seg`` and return the catalog
    rows that address it."""
    from fulltextsearch_ray.state.payloads import encode_blob

    blob = os.path.join(PAYLOAD_DIR, "p.bin")
    data, directory = encode_blob(rows)
    os.makedirs(os.path.join(seg, PAYLOAD_DIR), exist_ok=True)
    with open(os.path.join(seg, blob), "wb") as f:
        f.write(data)
    return build_mod._catalog_rows(rows, blob, directory)


def test_blob_round_trip(tmp_path):
    """encode_blob → read by address (decode_record) and whole-row
    (read_blob_rows, from the catalog rows) give back every row."""
    from fulltextsearch_ray.state.payloads import read_directory

    rows = _encoded_rows(block_cf=2)
    assert rows.num_rows > 150
    cat = _blob_and_catalog(rows, str(tmp_path))
    blob = str(tmp_path / PAYLOAD_DIR / "p.bin")
    offsets, _hdr, bm25_len, length = read_directory(blob)
    # the directory the writer returned is the one a reader finds
    assert cat["offset"].to_pylist() == offsets.tolist() and cat["len"].to_pylist() == length.tolist()
    assert cat["bm25_len"].to_pylist() == bm25_len.tolist()
    data = open(blob, "rb").read()
    for t, term in enumerate(["a", "b", "c"]):
        want = rows.filter(pc.equal(rows["term"], term))
        for rest, n in ((False, bm25_len[t]), (True, length[t])):
            got = decode_record(data[offsets[t] : offsets[t] + n], rest, blob, term)
            _assert_decodes_as(got, want, rest, (term, rest))
    assert read_blob_rows(cat, str(tmp_path)).equals(rows)
    # any subset of the catalog rows reads its own terms' rows
    assert read_blob_rows(cat.slice(1), str(tmp_path)).equals(rows.filter(pc.not_equal(rows["term"], "a")))


def test_blob_rows_check_the_catalog(tmp_path):
    """The whole-row read recomputes each block's cf, max_tf and n_docs
    from the docs and tfs payloads and checks the per-term sums against
    the catalog row: a row that disagrees raises ValueError naming the
    blob and the term, and rows whose addresses overlap raise too."""
    rows = _encoded_rows(block_cf=2)
    cat = _blob_and_catalog(rows, str(tmp_path))
    for c in ("df", "cf", "max_tf", "df_docs", "first_doc", "last_doc", "n_blocks"):
        vals = cat[c].to_pylist()
        vals[1] += 1  # term 'b'
        bad = cat.set_column(cat.schema.get_field_index(c), c, pa.array(vals, cat.schema.field(c).type))
        with pytest.raises(ValueError, match=r"p\.bin: payload record of term 'b'"):
            read_blob_rows(bad, str(tmp_path))
    # two catalog rows addressing one record
    with pytest.raises(ValueError, match=r"p\.bin: payload regions overlap"):
        read_blob_rows(pa.concat_tables([cat, cat.slice(1, 1)]), str(tmp_path))


def test_rewritten_partition_replaces_its_files(tmp_path):
    """A retried write of the same partition lands on the same names:
    one blob, one catalog file and one docs file, not two copies
    (double df/cf and docs), and no postings parquet file.  The catalog
    rows address every term's record, and the docs file holds the
    sentinel rows' docs in doc_id order."""
    posting = _encoded_rows(block_cf=64)
    ids, lens = np.array([9, 4, 6], dtype=np.uint64), np.array([3, 1, 2])
    sentinel = pa.Table.from_pylist(
        [encode_docstats_row(ids, lens, ["a" * 64, "b" * 64, "c" * 64], 6)], schema=POSTINGS_SCHEMA
    )
    rows = pa.concat_tables([sentinel, posting])
    seg = str(tmp_path / "seg")
    for _ in range(2):
        out = build_mod.write_postings_partition(rows, seg)
    assert sorted(os.listdir(seg)) == ["catalog", "docs", PAYLOAD_DIR]
    assert all(len(os.listdir(os.path.join(seg, d))) == 1 for d in os.listdir(seg))
    (cat_file,) = glob.glob(os.path.join(seg, "catalog", "*"))
    assert out["max_field"].to_pylist() == [1]
    cat = pq.read_table(cat_file)
    # the files are the pure encode's, written: the in-memory index
    # holds exactly what the disk build writes
    stem, blob, enc_cat, enc_docs, counters = build_mod.encode_postings_partition(rows)
    assert os.path.basename(cat_file) == stem + ".parquet"
    assert open(os.path.join(seg, PAYLOAD_DIR, stem + ".bin"), "rb").read() == blob
    assert enc_cat.equals(cat)
    assert enc_docs.equals(pq.read_table(os.path.join(seg, "docs", stem + ".parquet")))
    assert counters == out.to_pylist()[0]
    assert cat.drop_columns(ADDRESS_COLS).equals(build_mod.aggregate_catalog(posting))
    assert read_blob_rows(cat, seg).equals(posting)
    for r in cat.to_pylist():
        with open(os.path.join(seg, r["file"]), "rb") as f:
            got = decode_record(os.pread(f.fileno(), r["len"], r["offset"]), True, r["file"], r["term"])
        _assert_decodes_as(got, posting.filter(pc.equal(posting["term"], r["term"])), True, r["term"])
    assert pq.read_table(os.path.join(seg, "docs")).to_pydict() == {
        "doc_id": [4, 6, 9], "doc_len": [1, 2, 3], "sha256": ["b" * 64, "c" * 64, "a" * 64],
    }
    assert out.drop_columns(["max_field"]).to_pylist() == [{
        "num_terms": 3, "num_occurrences": 305, "first_term": "a", "last_term": "c",
        "num_docs": 3, "total_tokens": 6, "min_doc_id": 4, "max_doc_id": 9,
    }]


def _mixed_field_rows():
    """Term-sorted posting rows of two terms over two fields: 'x' has
    field-1-only blocks and mixed blocks (block_cf=2 cuts it small),
    'y' only field 2."""
    from fulltextsearch_ray.stages.invert import encode_posting_rows

    docs = np.r_[[1, 2, 3, 3, 4, 5], [6, 7]].astype(np.uint64)
    fields = np.r_[[1, 1, 1, 2, 2, 1], [2, 2]].astype(np.uint64)
    tokens = np.r_[[1, 1, 1, 1, 1, 1], [1, 1]].astype(np.uint64)
    return encode_posting_rows(
        pa.array(["x", "y"]), np.array([0, 6, 8]),
        docs, fields, tokens, 2,
    )


def test_field_one_payloads_stored_empty(tmp_path):
    """A block whose entries are all field 1 stores no fields bytes in
    the blob (its header length is 0); every other block keeps them,
    and both read back as the encoder's field ids, by address and
    whole-row."""
    from fulltextsearch_ray.state.payloads import read_directory

    for rows in (_encoded_rows(block_cf=2), _mixed_field_rows()):
        cat = _blob_and_catalog(rows, str(tmp_path))
        blob = str(tmp_path / PAYLOAD_DIR / "p.bin")
        offsets, hdr_len, _bm25, length = read_directory(blob)
        data = open(blob, "rb").read()
        terms = pc.unique(rows["term"]).to_pylist()
        stored = []
        for t, term in enumerate(terms):
            B = int(varint_decode(data[offsets[t] : offsets[t] + 2])[0])
            hdr = varint_decode(data[offsets[t] : offsets[t] + hdr_len[t]])
            stored += hdr[1 + 5 * B : 1 + 6 * B].tolist()  # fields_len per block
            got = decode_record(data[offsets[t] : offsets[t] + length[t]], True, blob, term)
            _assert_decodes_as(got, rows.filter(pc.equal(rows["term"], term)), True, term)
        field_one = [f == b"\x01" * d for f, d in zip(rows["fields"].to_pylist(), rows["df"].to_pylist())]
        assert stored == [0 if one else len(f) for one, f in zip(field_one, rows["fields"].to_pylist())]
        assert read_blob_rows(cat, str(tmp_path)).equals(rows)
    assert any(field_one) and not all(field_one)  # the mixed rows cover both kinds
    assert build_mod.write_postings_partition(_mixed_field_rows(), str(tmp_path / "seg"))[
        "max_field"
    ].to_pylist() == [2]


def test_term_split_across_files_raises(tmp_path):
    """A term whose rows land in two sort partitions cannot be addressed
    (a searcher reads one address per term and segment): the driver
    refuses overlapping (first, last) term ranges of the rows the
    partition tasks return, and accepts disjoint ones."""
    rows = _encoded_rows(block_cf=2)
    seg = str(tmp_path / "seg")
    split = [  # 'a' blocks 0..74, then the rest of 'a', 'b', 'c'
        build_mod.write_postings_partition(part, seg).to_pylist()[0]
        for part in (rows.slice(0, 75), rows.slice(75))
    ]
    assert [(p["first_term"], p["last_term"], p["num_terms"]) for p in split] == [
        ("a", "a", 1), ("a", "c", 3)
    ]
    with pytest.raises(ValueError, match="span two payload blobs"):
        build_mod._check_one_file_per_term(seg, split)
    disjoint = [
        build_mod.write_postings_partition(rows.filter(pc.equal(rows["term"], t)), seg).to_pylist()[0]
        for t in ("c", "a", "b")
    ]
    build_mod._check_one_file_per_term(seg, disjoint)
    assert [p["first_term"] for p in disjoint] == ["c", "a", "b"]


def test_cold_single_segment_lookup_is_one_payload_read(compacted_index, monkeypatch):
    """A cold lookup in one segment is one ``pread`` of the term's
    record and one ``varint_decode`` over it, for BM25 and positions."""
    from fulltextsearch_ray.state import payloads

    decodes = []
    real = payloads.varint_decode

    def counting(buf, *a, **k):
        decodes.append(len(buf))
        return real(buf, *a, **k)

    monkeypatch.setattr(payloads, "varint_decode", counting)
    s = IndexSearcher(compacted_index)
    assert len(s.segments) == 1
    r = s.posting_reader
    assert (r.files_opened, r.payload_reads, r.payload_bytes) == (0, 0, 0)
    path, _off, bm25_len, length = s._term_address(0, "term7")
    assert os.path.dirname(path).endswith(PAYLOAD_DIR) and 0 < bm25_len < length
    assert len(s.get_doc_tfs("term7")[0]) > 0
    assert (r.payload_reads, r.payload_bytes, r.files_opened) == (1, bm25_len, 1)
    assert decodes == [bm25_len]
    s.get_doc_tfs("term7")  # cached: no read
    assert r.payload_reads == 1
    assert len(s.get_postings("term7").docs) > 0  # positions: the whole record
    assert (r.payload_reads, r.payload_bytes, r.files_opened) == (2, bm25_len + length, 1)
    assert decodes == [bm25_len, length]
    assert len(s.get_doc_tfs("absent")[0]) == 0  # not in the catalog: no read
    assert r.payload_reads == 2 and len(decodes) == 2


def _records(idx):
    """(blob path, offset, term, record bytes, header end, header
    values) of every record of ``idx``, segment by segment."""
    s = IndexSearcher(idx)
    for i in range(len(s.segments)):
        for term in s.terms.to_pylist():
            addr = s._term_address(i, term)
            if addr is None:
                continue
            path, off, _bm25, length = addr
            with open(path, "rb") as f:
                rec = np.frombuffer(os.pread(f.fileno(), length, off), dtype=np.uint8)
            ends = np.flatnonzero(rec < 0x80)
            B = int(varint_decode(rec[: ends[0] + 1])[0])
            hdr_end = int(ends[7 * B]) + 1
            yield path, off, term, rec, hdr_end, varint_decode(rec[:hdr_end])


def _single_block_record(idx):
    """(blob path, offset, term) of the first single-block term with
    df ≥ 2, segment by segment, and the index of its header's end."""
    for path, off, term, _rec, hdr_end, vals in _records(idx):
        if vals[0] == 1 and vals[1] >= 2 and vals[4] < 127:
            return path, off, term, hdr_end, vals
    raise AssertionError("no single-block term")


def _catalog_of(blob):
    """The catalog rows that address ``blob`` (the file with its stem)."""
    seg, name = os.path.dirname(os.path.dirname(blob)), os.path.basename(blob)
    return pq.read_table(os.path.join(seg, "catalog", name.replace(".bin", ".parquet")))


def test_truncated_blob_raises(two_segment_index, tmp_path):
    idx = str(tmp_path / "idx")
    shutil.copytree(two_segment_index, idx)
    s = IndexSearcher(idx)
    term = max(s.terms.to_pylist(), key=lambda t: s._term_address(0, t)[1] if s._term_address(0, t) else -1)
    path, off, _bm25, _len = s._term_address(0, term)
    with open(path, "r+b") as f:
        f.truncate(off + 1)
    with pytest.raises(ValueError, match=f"{os.path.basename(path)}.*{term!r}"):
        IndexSearcher(idx).get_doc_tfs(term)
    with pytest.raises(ValueError, match=f"{os.path.basename(path)}.*{term!r}"):
        read_blob_rows(_catalog_of(path), os.path.dirname(os.path.dirname(path)))


def test_corrupt_header_length_raises(two_segment_index, tmp_path):
    idx = str(tmp_path / "idx")
    shutil.copytree(two_segment_index, idx)
    path, off, term, hdr_end, vals = _single_block_record(idx)

    def patch(docs_delta, tfs_delta):
        v = vals.copy()
        v[4] += np.uint64(docs_delta)
        v[5] -= np.uint64(tfs_delta)
        b = varint_encode(v)
        assert len(b) == hdr_end
        with open(path, "r+b") as f:
            f.seek(off)
            f.write(b)

    # lengths that still sum to the address: the docs region swallows
    # the first tfs byte, and the decoded counts disagree with df
    patch(1, 1)
    with pytest.raises(ValueError, match=f"{os.path.basename(path)}.*corrupt postings of term {term!r}"):
        IndexSearcher(idx).get_doc_tfs(term)
    with pytest.raises(ValueError, match=f"{os.path.basename(path)}.*{term!r}"):
        read_blob_rows(_catalog_of(path), os.path.dirname(os.path.dirname(path)))
    # lengths that disagree with the address
    patch(1, 0)
    with pytest.raises(ValueError, match=f"{os.path.basename(path)}.*{term!r}.*header lengths"):
        IndexSearcher(idx).get_doc_tfs(term)


def _overwrite(path, off, data):
    with open(path, "r+b") as f:
        f.seek(off)
        f.write(bytes(data))


def _corrupt(path, term, region):
    return f"{os.path.basename(path)}: corrupt postings of term {term!r}: {region}"


def test_region_boundary_inside_varint_raises(two_segment_index, tmp_path):
    """Header lengths that still cover the address but end the docs
    region one byte early, on the continuation byte of its last
    (two-byte) varint, fail by address naming the blob and the term."""
    idx = str(tmp_path / "idx")
    shutil.copytree(two_segment_index, idx)
    for path, off, term, rec, hdr_end, v in _records(idx):
        B = int(v[0])
        docs_end = hdr_end + int(v[1 + 3 * B : 1 + 4 * B].sum())
        v = v.copy()
        v[1 + 3 * B] -= np.uint64(1)  # block 0: docs one byte shorter,
        v[1 + 4 * B] += np.uint64(1)  # tfs one byte longer
        if rec[docs_end - 2] >= 0x80 and len(varint_encode(v)) == hdr_end:
            break
    else:
        raise AssertionError("no record whose docs region ends on a two-byte varint")
    _overwrite(path, off, varint_encode(v))
    with pytest.raises(ValueError, match=_corrupt(path, term, "a region boundary .* inside a varint")):
        IndexSearcher(idx).get_doc_tfs(term)


def test_positions_count_mismatch_raises(two_segment_index, tmp_path):
    """A tf one higher than its positions: the BM25 prefix still reads,
    the positional read fails naming the blob and the term."""
    idx = str(tmp_path / "idx")
    shutil.copytree(two_segment_index, idx)
    path, off, term, rec, hdr_end, v = next(_records(idx))
    B = int(v[0])
    tfs_start = hdr_end + int(v[1 + 3 * B : 1 + 4 * B].sum())
    assert rec[tfs_start] < 0x7F
    _overwrite(path, off + tfs_start, [rec[tfs_start] + 1])
    s = IndexSearcher(idx)
    s.get_doc_tfs(term)
    with pytest.raises(ValueError, match=_corrupt(path, term, "positions region holds")):
        s.get_postings(term)


def test_fields_count_mismatch_raises(multi_field_index, tmp_path):
    """A fields region whose first two field ids merge into one varint
    holds one value too few: the positional read fails naming the blob
    and the term."""
    idx = str(tmp_path / "idx")
    shutil.copytree(multi_field_index, idx)
    for path, off, term, rec, hdr_end, v in _records(idx):
        B = int(v[0])
        lens = v[1 + 3 * B :].reshape(4, B).sum(axis=1).astype(np.int64)
        if lens[2] >= 2:
            break
    else:
        raise AssertionError("no record that stores two field ids")
    fields_start = hdr_end + int(lens[:2].sum())
    _overwrite(path, off + fields_start, [rec[fields_start] | 0x80])
    with pytest.raises(ValueError, match=_corrupt(path, term, "fields region holds")):
        IndexSearcher(idx).get_postings(term)


# -- manifest-cached footer stats (cold start opens no parquet footers) ------


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

    idx = str(tmp_path_factory.mktemp("r5") / "idx")
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


def test_manifest_persists_table_stats(built_index):
    from fulltextsearch_ray.state.index import load_manifest, load_meta

    meta = load_meta(built_index)
    man = load_manifest(built_index, meta.segments[0])
    assert man.catalog_stats and man.docs_stats
    for stats in (man.catalog_stats, man.docs_stats):
        for rel, info in stats.items():
            assert info["num_rows"] > 0
            assert info["columns"]
            assert info["row_groups"]  # this engine's writers emit stats
            for mn, mx, rows in info["row_groups"]:
                assert rows > 0 and mn <= mx


def test_cold_start_opens_zero_footers(built_index, monkeypatch):
    """With manifest stats present, IndexSearcher.__init__ in lazy mode
    must not construct a single pq.ParquetFile (the old cold start did
    one footer fetch per catalog/docs file per actor)."""
    import fulltextsearch_ray.pipelines.query as qmod

    calls = []
    real = qmod.pq.ParquetFile

    class CountingPF:
        def __new__(cls, path, *a, **k):
            calls.append(str(path))
            return real(path, *a, **k)

    monkeypatch.setattr(qmod.pq, "ParquetFile", CountingPF)
    s = qmod.IndexSearcher(built_index, catalog_budget_rows=0, doclen_budget_rows=0)
    assert calls == [], f"cold start opened footers: {calls}"
    assert s._min_block_cf > 0  # the manifest's block budget: the tight MaxScore bound
    # ... and no payload blob
    r = s.posting_reader
    assert (r.files_opened, r.payload_reads, r.payload_bytes) == (0, 0, 0)
    # the paged tables still serve lookups (reads happen lazily, now)
    assert s.term_stats("quick")[0] > 0
    assert calls, "lookups should read row groups on demand"
    # a posting lookup opens the one blob holding the term and reads
    # its record once, with no parquet row-group read
    assert len(s.get_doc_tfs("quick")[0]) > 0
    assert (r.files_opened, r.payload_reads) == (1, 1)


def test_manifest_stats_lookup_parity(built_index):
    """Lazy searcher built from manifest stats == eager searcher."""
    from fulltextsearch_ray.pipelines.query import IndexSearcher

    eager = IndexSearcher(built_index)
    lazy = IndexSearcher(built_index, catalog_budget_rows=0, doclen_budget_rows=0)
    for t in ("quick", "jump", "sphinx", "absentterm"):
        assert eager.term_stats(t) == lazy.term_stats(t)
    assert eager.bm25_topk("quick fox", k=5) == lazy.bm25_topk("quick fox", k=5)
