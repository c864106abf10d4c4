"""Posting reads: a fresh segment's lookup is one positional read of
the term's payload record at its catalog address; a segment written
before payload blobs reads its rows through ``PostingFileReader``
(cached footer, direct row-group reads).

Covers the file-range bisect with boundary spill, row-group pruning on
term statistics, rows that are not term-sorted within a row group,
files written without statistics, the one-footer-parse-per-file
contract, and differential checks over a real two-segment index: every
term's blocks as the searcher reads them equal a whole-file read of the
postings (the parquet rows with the blob's payloads attached), the blob
path equals the legacy reader on the same index rewritten in the
pre-blob layout (payloads inline, unsorted rows, 4,096-row groups),
eager and paged catalogs alike, and ``compact_index`` turns that legacy
index into blobs.  Corrupt blobs (truncated, lengths that disagree)
raise ValueError naming the file and the term.  The layout side:
``merge_runs_batch`` returns rows in (term, first_doc, block_id) order,
and ``build_index`` / ``compact_index`` write term-sorted files in
``POSTINGS_ROW_GROUP_SIZE`` groups.  Also the cold-start contract: a
searcher built from manifest stats opens no parquet footer and no blob.
"""

import glob
import os
import hashlib
import shutil
from types import SimpleNamespace

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from fulltextsearch_ray.codecs import encode_posting_block, varint_decode, varint_encode
from fulltextsearch_ray.pipelines import build as build_mod
from fulltextsearch_ray.pipelines.build import build_index, compact_index
from fulltextsearch_ray.pipelines.query import IndexSearcher, PostingFileReader
from fulltextsearch_ray.stages.invert import (
    DOCSTATS_TERM_PREFIX,
    InvertStage,
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
    PAYLOAD_COLS,
    PAYLOAD_DIR,
    read_postings_file,
)
from fulltextsearch_ray.tokenizer import tokenize


def _run(docs):
    """One posting block of distinct docs, tf 1 per doc, field and
    token 1: its stats and payload columns by name."""
    occ_docs = np.asarray(docs, dtype=np.uint64)
    ones = np.ones(len(occ_docs), dtype=np.uint64)
    blk = encode_posting_block(occ_docs, ones, ones)._asdict()
    return {**blk, "n_docs": len(docs)}


def _posting_file(path, term_rows, **write_kwargs):
    """Write a postings parquet file of rows [(term, block_id, docs)], in
    the given (not necessarily term-sorted) order."""
    occ = {k: [] for k in POSTINGS_SCHEMA.names}
    for term, block_id, docs in term_rows:
        t = _run(docs)
        occ["term"].append(term)
        occ["bucket"].append(0)
        occ["block_id"].append(block_id)
        occ["first_doc"].append(docs[0])
        occ["last_doc"].append(docs[-1])
        for c in ("df", "cf", "max_tf", "n_docs", "docs", "fields", "tfs", "positions"):
            occ[c].append(t[c])
    tbl = pa.table(
        {k: pa.array(occ[k], type=POSTINGS_SCHEMA.field(k).type) for k in POSTINGS_SCHEMA.names}
    )
    pq.write_table(tbl, path, **write_kwargs)


def _rows(t, cols=("term", "block_id", "first_doc")):
    return list(zip(*(t[c].to_pylist() for c in cols)))


def test_read_term_rows_boundary_spill(tmp_path):
    # term 'm' spans two files: it is file0's term_max AND file1's
    # term_min — the lookup must open BOTH files.
    f0, f1 = str(tmp_path / "p0.parquet"), str(tmp_path / "p1.parquet")
    _posting_file(f0, [("a", 0, [1, 2]), ("m", 0, [3, 4])])
    _posting_file(f1, [("m", 1, [5, 6]), ("z", 0, [7])])
    fake = SimpleNamespace(
        _seg_ranges={"seg": (["a", "m"], ["m", "z"], [f0, f1])},
        _postings_ds={},
        posting_reader=PostingFileReader(),
    )
    t = IndexSearcher._read_term_rows(fake, "seg", "m", ["term", "block_id", "docs", "df"])
    assert t.num_rows == 2
    assert sorted(t["block_id"].to_pylist()) == [0, 1]
    # terms fully inside one file still open exactly one file
    t = IndexSearcher._read_term_rows(fake, "seg", "a", ["term", "block_id"])
    assert t.num_rows == 1
    assert fake.posting_reader.files_opened == 2
    # absent term below every range
    t = IndexSearcher._read_term_rows(fake, "seg", "0", ["term", "block_id"])
    assert t.num_rows == 0


def test_unsorted_rows_across_row_groups(tmp_path):
    # rows out of term order, two per row group: [c b] [b a] [a c] —
    # 'b' spans groups 0 and 1, and no group is sorted
    f = str(tmp_path / "p.parquet")
    _posting_file(
        f,
        [("c", 0, [1]), ("b", 0, [2]), ("b", 1, [3]), ("a", 0, [4]), ("a", 1, [5]), ("c", 1, [6])],
        row_group_size=2,
    )
    assert pq.ParquetFile(f).metadata.num_row_groups == 3
    r = PostingFileReader()
    assert _rows(r.read(f, "a", ["term", "block_id", "first_doc"])) == [("a", 0, 4), ("a", 1, 5)]
    assert r.row_groups_read == 2  # group 0 is [b, c]: pruned
    # a term spanning two groups, columns without 'term'
    t = r.read(f, "b", ["block_id", "first_doc"])
    assert t.column_names == ["block_id", "first_doc"]
    assert _rows(t, ("block_id", "first_doc")) == [(0, 2), (1, 3)]
    assert r.row_groups_read == 2 + 3  # every group's [min, max] admits 'b'
    t = r.read(f, "c", ["term", "first_doc"])
    assert _rows(t, ("term", "first_doc")) == [("c", 1), ("c", 6)]
    assert r.row_groups_read == 2 + 3 + 2
    # absent terms inside and outside every range
    for absent in ("ab", "0", "z"):
        t = r.read(f, absent, ["term", "block_id"])
        assert t.num_rows == 0
        assert t.schema == pa.schema([("term", pa.string()), ("block_id", pa.int32())])
    assert r.row_groups_read == 2 + 3 + 2 + 2  # only 'ab' reads: [a, b] and [a, c]
    assert r.files_opened == 1


def test_file_without_statistics_is_read(tmp_path):
    f = str(tmp_path / "p.parquet")
    _posting_file(
        f, [("m", 0, [1]), ("a", 0, [2]), ("m", 1, [3])], row_group_size=2, write_statistics=False
    )
    st = pq.ParquetFile(f).metadata.row_group(0).column(0).statistics
    assert st is None or not st.has_min_max
    r = PostingFileReader()
    assert _rows(r.read(f, "m", ["term", "block_id", "first_doc"])) == [("m", 0, 1), ("m", 1, 3)]
    assert _rows(r.read(f, "a", ["term", "block_id", "first_doc"])) == [("a", 0, 2)]
    assert r.row_groups_read == 4  # nothing to prune on: every group read


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


QUERIES = ("the term3", "uniq5 term7 term39", "term0 term1 term2 the", "the uniq7 uniq9 term12")


@pytest.fixture(scope="module")
def legacy_index(two_segment_index, tmp_path_factory):
    """``two_segment_index`` rewritten in the layout indexes had before
    payload blobs: every postings row carries its payloads inline, the
    rows shuffled out of term order in 4,096-row groups the way the
    category-concatenating merge wrote them, no payloads directory, and
    catalogs without address columns.  Footer [min, max] ranges stay
    those of the fresh files, so the run catalog still matches."""
    idx = str(tmp_path_factory.mktemp("legacy") / "idx")
    shutil.copytree(two_segment_index, idx)
    rng = np.random.default_rng(11)
    for seg in load_meta(idx).segments:
        segp = segment_dir(idx, seg)
        for p in sorted(glob.glob(os.path.join(segp, "postings", "*.parquet"))):
            t = read_postings_file(p)
            pq.write_table(t.take(rng.permutation(t.num_rows)), p, row_group_size=4096)
        shutil.rmtree(os.path.join(segp, PAYLOAD_DIR))
        for p in glob.glob(os.path.join(segp, "catalog", "*.parquet")):
            pq.write_table(pq.read_table(p).drop_columns(ADDRESS_COLS), p)
        man = load_manifest(idx, seg)
        man.catalog_stats = build_mod._scan_table_stats(os.path.join(segp, "catalog"), segp)
        save_manifest(idx, man)
    return idx


SMALL_GROUPS = 16


@pytest.fixture(scope="module")
def small_group_indexes(ray_session, tmp_path_factory):
    """The same two segments written with 16-row groups (so a file has
    many groups to prune), before and after ``compact_index``."""
    root = tmp_path_factory.mktemp("small_groups")
    built, compacted = str(root / "built"), str(root / "compacted")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(build_mod, "POSTINGS_ROW_GROUP_SIZE", SMALL_GROUPS)
        _build_two_segments(built)
        shutil.copytree(built, compacted)
        compact_index(compacted, block_cf=64)
    return {"built": built, "compacted": compacted}


def _postings_files(s):
    return [(seg, p) for seg in s.segments for p in s._seg_ranges[seg][2]]


def _unsorted_files(s) -> int:
    n = 0
    for _seg, p in _postings_files(s):
        terms = pq.read_table(p, columns=["term"])["term"].to_pylist()
        n += terms != sorted(terms)
    return n


def _assert_matches_dataset_filter_read(s):
    """Every term's blocks as ``s`` reads them — a blob record at its
    catalog address, or legacy rows through ``PostingFileReader`` —
    equal the rows of a whole-file read filtered to the term
    (``read_postings_file``: the parquet rows with their payloads),
    segment by segment.  On a legacy segment the row reader must also
    equal the dataset-filter read (``pq.read_table(path, filters=...)``)."""
    cols = ["term", "block_id", "first_doc", "last_doc", "df", "docs", "fields", "tfs", "positions"]
    whole = {p: read_postings_file(p) for _seg, p in _postings_files(s)}
    terms = IndexSearcher(s.index_dir).terms.to_pylist()
    assert "the" in terms
    for term in terms:
        want = []
        for seg in s.segments:
            mins, maxs, paths = s._seg_ranges[seg]
            covering = [p for p, lo, hi in zip(paths, mins, maxs) if lo <= term <= hi]
            rows = [whole[p].filter(pc.equal(whole[p]["term"], term)) for p in covering]
            rows = pa.concat_tables(rows) if rows else None
            if rows is not None and rows.num_rows:
                want.append(rows.sort_by([("first_doc", "ascending"), ("block_id", "ascending")]))
            if seg in s._blob_segs:
                continue
            filtered = [pq.read_table(p, columns=cols, filters=[("term", "=", term)]) for p in covering]
            got = s._read_term_rows(seg, term, cols)
            if not filtered:
                assert got.num_rows == 0, (seg, term)
            else:
                assert got.equals(pa.concat_tables(filtered)), (seg, term)
        for with_positions in (False, True):
            got = s._fetch_term_blocks(term, with_positions)
            assert len(got) == len(want), term
            for b, w in zip(got, want):
                assert b.dfs.tolist() == w["df"].to_pylist(), term
                assert b.firsts.tolist() == w["first_doc"].to_pylist(), term
                assert b.lasts.tolist() == w["last_doc"].to_pylist(), term
                for c in PAYLOAD_COLS if with_positions else ("docs", "tfs"):
                    assert [bytes(x) for x in getattr(b, c)] == w[c].to_pylist(), (term, c)


def test_reader_matches_dataset_filter_read(two_segment_index):
    s = IndexSearcher(two_segment_index)
    assert len(s.segments) == 2 and set(s._seg_ranges) == set(s.segments)
    assert s._blob_segs == set(s.segments)
    # a fresh build writes term-sorted files only
    assert _unsorted_files(s) == 0
    _assert_matches_dataset_filter_read(s)
    _assert_matches_dataset_filter_read(IndexSearcher(two_segment_index, catalog_budget_rows=0))


def test_legacy_layout_matches_dataset_filter_read(legacy_index, two_segment_index):
    s = IndexSearcher(legacy_index)
    assert len(s.segments) == 2
    assert not s._blob_segs
    # the case a binary search within a row group would get wrong
    assert _unsorted_files(s) > 0
    assert all(
        pq.ParquetFile(p).metadata.num_row_groups == 1 for _seg, p in _postings_files(s)
    )
    _assert_matches_dataset_filter_read(s)
    fresh = IndexSearcher(two_segment_index)
    for q in ("the term3", "uniq5 term7 term39", "term0 term1 term2 the"):
        assert s.bm25_topk(q, k=10).equals(fresh.bm25_topk(q, k=10)), q


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


@pytest.mark.parametrize("budget", [2_000_000, 0], ids=["eager", "lazy"])
def test_blob_read_matches_legacy_reader(two_segment_index, legacy_index, budget):
    """The blob read and the legacy row reader give the same postings
    and the same BM25 answers, and pruned == exhaustive on both."""
    blob = IndexSearcher(two_segment_index, catalog_budget_rows=budget)
    legacy = IndexSearcher(legacy_index, catalog_budget_rows=budget)
    assert (blob._lazy_cats is None) == (legacy._lazy_cats is None) == (budget > 0)
    assert blob._blob_segs == set(blob.segments) and not legacy._blob_segs
    _assert_same_answers(blob, legacy, IndexSearcher(two_segment_index).terms.to_pylist() + ["absent"])
    for s in (blob, legacy):
        for q in QUERIES:
            for k in (3, 10):
                exact, pruned = s.bm25_topk(q, k=k), s.bm25_topk_pruned(tokenize(q), k=k)
                assert exact["doc_id"].to_pylist() == pruned["doc_id"].to_pylist(), (q, k)
                np.testing.assert_allclose(
                    pruned["score"].to_numpy(), exact["score"].to_numpy(), rtol=1e-12, atol=0
                )
    assert blob.posting_reader.payload_reads > 0 and blob.posting_reader.row_groups_read == 0
    assert legacy.posting_reader.payload_reads == 0 and legacy.posting_reader.row_groups_read > 0


def test_legacy_index_compacts_into_blobs(legacy_index, tmp_path):
    idx = str(tmp_path / "idx")
    shutil.copytree(legacy_index, idx)
    compact_index(idx, block_cf=64)
    before = IndexSearcher(legacy_index)
    after = IndexSearcher(idx)
    assert len(after.segments) == 1 and after._blob_segs == set(after.segments)
    assert os.listdir(os.path.join(segment_dir(idx, after.segments[0]), PAYLOAD_DIR))
    _assert_same_answers(after, before, before.terms.to_pylist() + ["absent"])
    assert after.posting_reader.row_groups_read == 0


def test_footer_parsed_once_and_no_dataset_reads(legacy_index, monkeypatch):
    # the parquet row reader serves segments written before blobs
    s = IndexSearcher(legacy_index)
    assert s.posting_reader.files_opened == 0  # nothing opened at construction
    terms = s.terms.to_pylist()
    # row groups whose term stats admit each term, over the files the
    # range bisect selects — the reads a pruning reader may make
    admitted = 0
    for mins, maxs, paths in s._seg_ranges.values():
        for p, lo, hi in zip(paths, mins, maxs):
            md = pq.ParquetFile(p).metadata
            for term in terms:
                if lo <= term <= hi:
                    for rg in range(md.num_row_groups):
                        st = md.row_group(rg).column(0).statistics
                        admitted += st.min <= term <= st.max
    opened = []
    real = pq.ParquetFile

    def spy_open(path, *a, **kw):
        opened.append(path)
        return real(path, *a, **kw)

    def no_read_table(*a, **kw):
        raise AssertionError("posting lookups must not call pq.read_table")

    monkeypatch.setattr(pq, "ParquetFile", spy_open)
    monkeypatch.setattr(pq, "read_table", no_read_table)
    for _ in range(3):
        for term in terms:
            s._fetch_term_blocks(term, with_positions=True)
    n_files = sum(len(r[2]) for r in s._seg_ranges.values())
    assert len(opened) == len(set(opened)) == s.posting_reader.files_opened == n_files
    assert s.posting_reader.row_groups_read == 3 * admitted


@pytest.mark.parametrize("which", ["built", "compacted"])
def test_fresh_layout_one_group_per_single_row_term(small_group_indexes, two_segment_index, which):
    s = IndexSearcher(small_group_indexes[which])
    assert len(s.segments) == (2 if which == "built" else 1)
    assert _unsorted_files(s) == 0
    groups = [pq.ParquetFile(p).metadata for _seg, p in _postings_files(s)]
    assert max(md.row_group(i).num_rows for md in groups for i in range(md.num_row_groups)) <= SMALL_GROUPS
    assert max(md.num_row_groups for md in groups) > 1  # something to prune
    cols = ["term", "block_id", "first_doc", "df", "docs", "fields", "tfs"]
    checked = 0
    for seg in s.segments:
        mins, maxs, paths = s._seg_ranges[seg]
        rows = pa.concat_tables([pq.read_table(p, columns=["term"]) for p in paths])
        counts = rows.group_by("term").aggregate([("term", "count")])
        single = pc.filter(counts["term"], pc.equal(counts["term_count"], 1)).to_pylist()
        for term in single:
            if term.startswith(DOCSTATS_TERM_PREFIX):
                continue
            files = sum(lo <= term <= hi for lo, hi in zip(mins, maxs))
            before = s.posting_reader.row_groups_read
            assert s._read_term_rows(seg, term, cols).num_rows == 1
            assert s.posting_reader.row_groups_read - before == files, (seg, term)
            checked += 1
    assert checked > 200  # every uniqN word at least
    fresh = IndexSearcher(two_segment_index)
    for q in ("the term3", "uniq5 term7 term39", "term0 term1 term2 the"):
        assert s.bm25_topk(q, k=10).equals(fresh.bm25_topk(q, k=10)), q


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
    write_blob(blob, rows)
    offsets, _hdr, bm25_len, length = read_directory(blob)
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
    one parquet file and one blob, not two copies (double df/cf)."""
    rows = _encoded_rows(block_cf=64)
    seg = str(tmp_path / "seg")
    for _ in range(2):
        out = build_mod.write_postings_partition(rows, seg, 4096)
    assert os.listdir(os.path.join(seg, "postings")) == [os.path.basename(out["file"][0].as_py())]
    assert len(os.listdir(os.path.join(seg, PAYLOAD_DIR))) == 1
    assert read_postings_file(os.path.join(seg, out["file"][0].as_py())).equals(rows)
    assert out["max_field"].to_pylist() == [1]


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
    assert build_mod.write_postings_partition(_mixed_field_rows(), str(tmp_path / "seg"), 4096)[
        "max_field"
    ].to_pylist() == [2]


def test_term_split_across_files_raises(ray_session, tmp_path):
    """A term whose rows land in two postings files cannot be addressed
    (a searcher reads one address per term and segment): the catalog
    build refuses it on the driver path and the Ray path alike."""
    rows = _encoded_rows(block_cf=2)
    seg = str(tmp_path / "seg")
    build_mod.write_postings_partition(rows.slice(0, 75), seg, 4096)  # 'a' blocks 0..74
    build_mod.write_postings_partition(rows.slice(75), seg, 4096)  # the rest of 'a', 'b', 'c'
    for budget in (50_000_000, 0):
        with pytest.raises(ValueError, match="span two postings files"):
            build_mod._build_catalog(seg, driver_budget_rows=budget)
        shutil.rmtree(os.path.join(seg, "catalog"), ignore_errors=True)
    os.remove(glob.glob(os.path.join(seg, "postings", "*.parquet"))[0])
    got = []
    for budget in (50_000_000, 0):  # one file per term: both paths agree
        shutil.rmtree(os.path.join(seg, "catalog"), ignore_errors=True)
        got.append(build_mod._build_catalog(seg, driver_budget_rows=budget))
    assert got[0] == got[1] and got[0][0] in (1, 3)


def test_cold_single_segment_lookup_is_one_payload_read(small_group_indexes):
    s = IndexSearcher(small_group_indexes["compacted"])
    assert len(s.segments) == 1
    r = s.posting_reader
    assert (r.files_opened, r.payload_reads, r.payload_bytes) == (0, 0, 0)
    path, _off, bm25_len, length = s._term_address(0, "term7")
    assert os.path.dirname(path).endswith(PAYLOAD_DIR) and 0 < bm25_len < length
    assert len(s.get_doc_tfs("term7")[0]) > 0
    assert (r.payload_reads, r.payload_bytes, r.row_groups_read, r.files_opened) == (1, bm25_len, 0, 1)
    s.get_doc_tfs("term7")  # cached: no read
    assert r.payload_reads == 1
    assert len(s.get_postings("term7").docs) > 0  # positions: the whole record
    assert (r.payload_reads, r.payload_bytes, r.files_opened) == (2, bm25_len + length, 1)
    assert len(s.get_doc_tfs("absent")[0]) == 0  # not in the catalog: no read
    assert r.payload_reads == 2 and r.row_groups_read == 0


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
    # ... and no payload blob
    r = s.posting_reader
    assert (r.files_opened, r.payload_reads, r.payload_bytes) == (0, 0, 0)
    # the paged tables still serve lookups (reads happen lazily, now)
    assert s.term_stats("quick")[0] > 0
    assert calls, "lookups should read row groups on demand"
    # a posting lookup opens the one blob holding the term and reads
    # its record once, with no parquet row-group read
    assert len(s.get_doc_tfs("quick")[0]) > 0
    assert (r.files_opened, r.payload_reads, r.row_groups_read) == (1, 1, 0)


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
