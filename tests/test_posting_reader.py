"""Posting reads: a lookup is one positional read of the term's
payload record at its catalog address.

Covers differential checks over a real two-segment index: every term's
blocks as the searcher reads them equal a whole-file read of the
postings (the parquet rows with the blob's payloads attached), eager and
paged catalogs alike.  An index written before payload blobs (payloads
inline, unsorted rows, catalogs without address columns), of one
segment or of two, is refused by the searcher with an error naming
``compact_index``, and after ``compact_index`` serves the same answers
as the fresh index.  Corrupt blobs (truncated, lengths that disagree)
raise ValueError naming the file and the term.  The layout side:
``merge_runs_batch`` returns rows in (term, first_doc, block_id) order,
and ``build_index`` / ``compact_index`` write term-sorted files.  Also
the cold-start contract: a searcher built from manifest stats opens no
parquet footer and no blob, also from a manifest that still carries
the retired postings run-catalog keys.
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

from fulltextsearch_ray.codecs import varint_decode, varint_encode
from fulltextsearch_ray.pipelines import build as build_mod
from fulltextsearch_ray.pipelines.build import build_index, compact_index
from fulltextsearch_ray.pipelines.query import IndexSearcher
from fulltextsearch_ray.stages.invert import (
    DOCSTATS_TERM_PREFIX,
    InvertStage,
    merge_runs_batch,
)
from fulltextsearch_ray.state.index import (
    load_manifest,
    load_meta,
    save_manifest,
    segment_dir,
    segment_is_complete,
)
from fulltextsearch_ray.state.payloads import (
    ADDRESS_COLS,
    PAYLOAD_COLS,
    PAYLOAD_DIR,
    predates_blobs,
    read_postings_file,
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
    kw = dict(doc_id_col="doc_id", num_buckets=4, block_cf=64, batch_size=50)
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


QUERIES = ("the term3", "uniq5 term7 term39", "term0 term1 term2 the", "the uniq7 uniq9 term12")


def _to_pre_blob_layout(idx):
    """Rewrite ``idx`` in place in the layout indexes had before payload
    blobs: every postings row carries its payloads inline, the rows
    shuffled out of term order in 4,096-row groups the way the
    category-concatenating merge wrote them, no payloads directory,
    catalogs without address columns, and manifests that carry the
    postings run catalog (``file_ranges``, ``num_buckets``)."""
    rng = np.random.default_rng(11)
    for seg in load_meta(idx).segments:
        segp = segment_dir(idx, seg)
        ranges = []
        for p in sorted(glob.glob(os.path.join(segp, "postings", "*.parquet"))):
            t = read_postings_file(p)
            ranges.append([os.path.relpath(p, segp), pc.min(t["term"]).as_py(), pc.max(t["term"]).as_py()])
            pq.write_table(t.take(rng.permutation(t.num_rows)), p, row_group_size=4096)
        shutil.rmtree(os.path.join(segp, PAYLOAD_DIR))
        for p in glob.glob(os.path.join(segp, "catalog", "*.parquet")):
            pq.write_table(pq.read_table(p).drop_columns(ADDRESS_COLS), p)
        man = load_manifest(idx, seg)
        man.catalog_stats = build_mod._scan_table_stats(os.path.join(segp, "catalog"), segp)
        save_manifest(idx, man)
        mpath = os.path.join(segp, "manifest.json")
        with open(mpath) as f:
            d = json.load(f)
        d.update(file_ranges=ranges, num_buckets=4)
        with open(mpath, "w") as f:
            json.dump(d, f)
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


def _postings_files(idx):
    return [
        (seg, p)
        for seg in load_meta(idx).segments
        for p in sorted(glob.glob(os.path.join(segment_dir(idx, seg), "postings", "*.parquet")))
    ]


def _unsorted_files(idx) -> int:
    n = 0
    for _seg, p in _postings_files(idx):
        terms = pq.read_table(p, columns=["term"])["term"].to_pylist()
        n += terms != sorted(terms)
    return n


def _assert_matches_whole_file_read(s):
    """Every term's blocks as ``s`` reads them — a blob record at its
    catalog address — equal the rows of a whole-file read filtered to
    the term (``read_postings_file``: the parquet rows with their
    payloads), segment by segment."""
    whole = {}
    for seg, p in _postings_files(s.index_dir):
        whole.setdefault(seg, []).append(read_postings_file(p))
    whole = {seg: pa.concat_tables(ts) for seg, ts in whole.items()}
    terms = IndexSearcher(s.index_dir).terms.to_pylist()
    assert "the" in terms
    for term in terms:
        want = []
        for seg in s.segments:
            rows = whole[seg].filter(pc.equal(whole[seg]["term"], term))
            if rows.num_rows:
                want.append(rows.sort_by([("first_doc", "ascending"), ("block_id", "ascending")]))
        for with_positions in (False, True):
            got = s._fetch_term_blocks(term, with_positions)
            assert len(got) == len(want), term
            for b, w in zip(got, want):
                assert b.dfs.tolist() == w["df"].to_pylist(), term
                assert b.firsts.tolist() == w["first_doc"].to_pylist(), term
                assert b.lasts.tolist() == w["last_doc"].to_pylist(), term
                for c in PAYLOAD_COLS if with_positions else ("docs", "tfs"):
                    assert [bytes(x) for x in getattr(b, c)] == w[c].to_pylist(), (term, c)


def test_reader_matches_dataset_filter_read(two_segment_index, compacted_index):
    s = IndexSearcher(two_segment_index)
    assert len(s.segments) == 2
    # a fresh build and a compaction write term-sorted files only
    assert _unsorted_files(two_segment_index) == 0
    assert _unsorted_files(compacted_index) == 0
    _assert_matches_whole_file_read(s)
    _assert_matches_whole_file_read(IndexSearcher(two_segment_index, catalog_budget_rows=0))


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
    """A pre-blob segment fails loudly at open, eager and paged alike,
    naming the segment and the migration, instead of being served."""
    for kind, idx in legacy_indexes.items():
        segs = load_meta(idx).segments
        assert len(segs) == (2 if kind == "two" else 1)
        for budget in (2_000_000, 0):
            with pytest.raises(ValueError, match=f"segment {segs[0]} .*compact_index"):
                IndexSearcher(idx, catalog_budget_rows=budget)


def test_legacy_index_compacts_into_blobs(legacy_indexes, compacted_legacy):
    """``compact_index`` rewrites a pre-blob index of one segment or of
    two into one segment of payload blobs and term-sorted files; a
    second compaction of that one blob segment changes nothing."""
    for kind, idx in compacted_legacy.items():
        before = load_meta(legacy_indexes[kind]).segments
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
        text_col="a", text_cols=["a", "b"], doc_id_col="doc_id",
        num_buckets=4, block_cf=64, emit_docstats=True,
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
    # the rows are those of the category-concatenating merge this order
    # replaced: sha256 of its output, sorted the same way
    digest = hashlib.sha256(repr(out.to_pydict()).encode()).hexdigest()
    assert digest == "349acdea1c69889914dff8ad9406b5166ce2a84478f5395232bc5aefe80db45d"
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
        np.array(["a", "b", "c"], dtype=object), np.array([0, 300, 303, 305]),
        docs, None, tokens, np.zeros(3, dtype=np.int32), block_cf,
    )


def test_blob_round_trip(tmp_path):
    """write_blob → read by address (parse_record) and whole-file
    (attach_payloads) give back every row's payload bytes."""
    from fulltextsearch_ray.state.payloads import (
        attach_payloads,
        parse_record,
        read_directory,
        write_blob,
    )

    rows = _encoded_rows(block_cf=2)
    assert rows.num_rows > 150
    blob = str(tmp_path / "payloads" / "p.bin")
    directory = write_blob(blob, rows)
    offsets, _hdr, bm25_len, length = read_directory(blob)
    # the directory the writer returns is the one a reader finds
    assert all(np.array_equal(a, b) for a, b in zip(directory, read_directory(blob)))
    data = open(blob, "rb").read()
    for t, term in enumerate(["a", "b", "c"]):
        want = rows.filter(pc.equal(rows["term"], term))
        for rest, n in ((False, bm25_len[t]), (True, length[t])):
            got = parse_record(data[offsets[t] : offsets[t] + n], rest, blob, term)
            assert got.dfs.tolist() == want["df"].to_pylist()
            assert got.firsts.tolist() == want["first_doc"].to_pylist()
            assert got.lasts.tolist() == want["last_doc"].to_pylist()
            for c in PAYLOAD_COLS if rest else ("docs", "tfs"):
                assert [bytes(x) for x in getattr(got, c)] == want[c].to_pylist(), (term, c)
    # a sentinel row (payload inline) ahead of the blob-backed rows
    nulls = {c: pa.nulls(rows.num_rows, pa.binary()) for c in PAYLOAD_COLS}
    stripped = rows
    for c, col in nulls.items():
        stripped = stripped.set_column(stripped.schema.get_field_index(c), c, col)
    sentinel = rows.slice(0, 1).set_column(rows.schema.get_field_index("term"), "term",
                                           pa.array(["\x00docs:1"]))
    sentinel = sentinel.set_column(sentinel.schema.get_field_index("bucket"), "bucket",
                                   pa.array([-1], pa.int32()))
    got = attach_payloads(pa.concat_tables([sentinel, stripped]), blob)
    assert got.equals(pa.concat_tables([sentinel, rows]))


def test_rewritten_partition_replaces_its_files(tmp_path):
    """A retried write of the same partition lands on the same names:
    one parquet file, one blob and one catalog file, not two copies
    (double df/cf).  The catalog rows address every term's record."""
    from fulltextsearch_ray.state.payloads import parse_record

    rows = _encoded_rows(block_cf=64)
    seg = str(tmp_path / "seg")
    for _ in range(2):
        out = build_mod.write_postings_partition(rows, seg)
    assert os.listdir(os.path.join(seg, "postings")) == [os.path.basename(out["file"][0].as_py())]
    assert len(os.listdir(os.path.join(seg, PAYLOAD_DIR))) == 1
    (cat_file,) = glob.glob(os.path.join(seg, "catalog", "*"))
    assert read_postings_file(os.path.join(seg, out["file"][0].as_py())).equals(rows)
    assert out["max_field"].to_pylist() == [1]
    cat = pq.read_table(cat_file)
    assert cat.drop_columns(ADDRESS_COLS).equals(build_mod.aggregate_catalog(rows))
    for r in cat.to_pylist():
        with open(os.path.join(seg, r["file"]), "rb") as f:
            got = parse_record(os.pread(f.fileno(), r["len"], r["offset"]), True, r["file"], r["term"])
        assert got.dfs.tolist() == rows.filter(pc.equal(rows["term"], r["term"]))["df"].to_pylist()
    assert out.select(["num_terms", "num_occurrences", "first_term", "last_term", "num_docs"]).to_pylist() == [
        {"num_terms": 3, "num_occurrences": 305, "first_term": "a", "last_term": "c", "num_docs": 0}
    ]


def _mixed_field_rows():
    """Term-sorted posting rows of two terms over two fields: 'x' has
    field-1-only blocks and mixed blocks (block_cf=2 cuts it small),
    'y' only field 2."""
    from fulltextsearch_ray.stages.invert import encode_posting_rows

    docs = np.r_[[1, 2, 3, 3, 4, 5], [6, 7]].astype(np.uint64)
    fields = np.r_[[1, 1, 1, 2, 2, 1], [2, 2]].astype(np.uint64)
    tokens = np.r_[[1, 1, 1, 1, 1, 1], [1, 1]].astype(np.uint64)
    return encode_posting_rows(
        np.array(["x", "y"], dtype=object), np.array([0, 6, 8]),
        docs, fields, tokens, np.zeros(2, dtype=np.int32), 2,
    )


def test_field_one_payloads_stored_empty(tmp_path):
    """A block whose entries are all field 1 stores no fields bytes in
    the blob (its header length is 0); every other block keeps them,
    and both read back as the encoder's bytes, by address and whole-file."""
    from fulltextsearch_ray.state.payloads import attach_payloads, parse_record, read_directory, write_blob

    for rows in (_encoded_rows(block_cf=2), _mixed_field_rows()):
        blob = str(tmp_path / "payloads" / "p.bin")
        write_blob(blob, rows)
        offsets, hdr_len, _bm25, length = read_directory(blob)
        data = open(blob, "rb").read()
        terms = pc.unique(rows["term"]).to_pylist()
        stored = []
        for t, term in enumerate(terms):
            B = int(varint_decode(data[offsets[t] : offsets[t] + 2])[0])
            hdr = varint_decode(data[offsets[t] : offsets[t] + hdr_len[t]])
            stored += hdr[1 + 5 * B : 1 + 6 * B].tolist()  # fields_len per block
            got = parse_record(data[offsets[t] : offsets[t] + length[t]], True, blob, term)
            want = rows.filter(pc.equal(rows["term"], term))
            assert [bytes(x) for x in got.fields] == want["fields"].to_pylist(), term
        field_one = [f == b"\x01" * d for f, d in zip(rows["fields"].to_pylist(), rows["df"].to_pylist())]
        assert stored == [0 if one else len(f) for one, f in zip(field_one, rows["fields"].to_pylist())]
        stripped = rows
        for c in PAYLOAD_COLS:
            stripped = stripped.set_column(stripped.schema.get_field_index(c), c,
                                           pa.nulls(rows.num_rows, pa.binary()))
        assert attach_payloads(stripped, blob).equals(rows)
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
    with pytest.raises(ValueError, match="span two postings files"):
        build_mod._check_one_file_per_term(seg, split)
    disjoint = [
        build_mod.write_postings_partition(rows.filter(pc.equal(rows["term"], t)), seg).to_pylist()[0]
        for t in ("c", "a", "b")
    ]
    build_mod._check_one_file_per_term(seg, disjoint)
    assert [p["first_term"] for p in disjoint] == ["c", "a", "b"]


def test_cold_single_segment_lookup_is_one_payload_read(compacted_index):
    s = IndexSearcher(compacted_index)
    assert len(s.segments) == 1
    r = s.posting_reader
    assert (r.files_opened, r.payload_reads, r.payload_bytes) == (0, 0, 0)
    path, _off, bm25_len, length = s._term_address(0, "term7")
    assert os.path.dirname(path).endswith(PAYLOAD_DIR) and 0 < bm25_len < length
    assert len(s.get_doc_tfs("term7")[0]) > 0
    assert (r.payload_reads, r.payload_bytes, r.files_opened) == (1, bm25_len, 1)
    s.get_doc_tfs("term7")  # cached: no read
    assert r.payload_reads == 1
    assert len(s.get_postings("term7").docs) > 0  # positions: the whole record
    assert (r.payload_reads, r.payload_bytes, r.files_opened) == (2, bm25_len + length, 1)
    assert len(s.get_doc_tfs("absent")[0]) == 0  # not in the catalog: no read
    assert r.payload_reads == 2


def _single_block_record(idx):
    """(blob path, offset, term) of a single-block term with df ≥ 2 in
    the first segment, and the index of its header's end."""
    s = IndexSearcher(idx)
    for term in s.terms.to_pylist():
        addr = s._term_address(0, term)
        if addr is None:
            continue
        path, off, _bm25, length = addr
        with open(path, "rb") as f:
            f.seek(off)
            rec = np.frombuffer(f.read(length), dtype=np.uint8)
        ends = np.flatnonzero(rec < 0x80)
        vals = varint_decode(rec[: ends[7] + 1])
        if vals[0] == 1 and vals[1] >= 2 and vals[4] < 127:
            return path, off, term, int(ends[7]) + 1, vals
    raise AssertionError("no single-block term")


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
    parquet = os.path.join(segment_dir(idx, s.segments[0]), "postings",
                           os.path.basename(path).replace(".bin", ".parquet"))
    with pytest.raises(ValueError, match=os.path.basename(path)):
        read_postings_file(parquet)


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
    with pytest.raises(ValueError, match=os.path.basename(path)):
        read_postings_file(path.replace(PAYLOAD_DIR, "postings").replace(".bin", ".parquet"))
    # lengths that disagree with the address
    patch(1, 0)
    with pytest.raises(ValueError, match=f"{os.path.basename(path)}.*{term!r}.*header lengths"):
        IndexSearcher(idx).get_doc_tfs(term)


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
    build_index(ds, idx, text_col="text", doc_id_col="doc_id", num_buckets=4, overwrite=True)
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


def test_cold_start_opens_zero_footers(built_index, tmp_path, monkeypatch):
    """With manifest stats present, IndexSearcher.__init__ in lazy mode
    must not construct a single pq.ParquetFile (the old cold start did
    one footer fetch per catalog/docs file per actor).  The same holds
    for a manifest that still carries the retired postings run-catalog
    keys (``file_ranges``, ``num_buckets``): it loads, counts as
    complete, and keeps its stats and block budget."""
    import fulltextsearch_ray.pipelines.query as qmod

    retired = str(tmp_path / "retired")
    shutil.copytree(built_index, retired)
    (seg,) = load_meta(retired).segments
    mpath = os.path.join(segment_dir(retired, seg), "manifest.json")
    with open(mpath) as f:
        d = json.load(f)
    d.update(file_ranges=[["postings/part-0.parquet", "box", "zebras"]], num_buckets=4)
    with open(mpath, "w") as f:
        json.dump(d, f)
    assert load_manifest(retired, seg).catalog_stats and segment_is_complete(retired, seg)

    calls = []
    real = qmod.pq.ParquetFile

    class CountingPF:
        def __new__(cls, path, *a, **k):
            calls.append(str(path))
            return real(path, *a, **k)

    monkeypatch.setattr(qmod.pq, "ParquetFile", CountingPF)
    for idx in (built_index, retired):
        calls.clear()
        s = qmod.IndexSearcher(idx, catalog_budget_rows=0, doclen_budget_rows=0)
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


def test_legacy_manifest_without_stats_still_serves(built_index, tmp_path):
    """An index whose manifest predates catalog_stats/docs_stats falls
    back to footer reads — same results."""
    import json
    import shutil

    from fulltextsearch_ray.pipelines.query import IndexSearcher

    legacy = str(tmp_path / "legacy")
    shutil.copytree(built_index, legacy)
    from fulltextsearch_ray.state.index import load_meta, segment_dir

    for seg in load_meta(legacy).segments:
        mpath = os.path.join(segment_dir(legacy, seg), "manifest.json")
        with open(mpath) as f:
            d = json.load(f)
        d.pop("catalog_stats", None)
        d.pop("docs_stats", None)
        with open(mpath, "w") as f:
            json.dump(d, f)
    a = IndexSearcher(built_index).bm25_topk("lazy dog", k=5)
    b = IndexSearcher(legacy).bm25_topk("lazy dog", k=5)
    assert a == b
