"""PostingFileReader: one term's posting rows from a postings parquet
file through a cached footer and direct row-group reads, and the
postings layout it reads.

Covers the file-range bisect with boundary spill, row-group pruning on
term statistics, rows that are not term-sorted within a row group,
files written without statistics, a differential check against the
dataset-filter read (``pq.read_table(path, filters=...)``) over a real
two-segment index and over the same index rewritten in the legacy
layout (unsorted rows, 4,096-row groups), and the one-footer-parse-per-
file contract.  The layout side: ``merge_runs_batch`` returns rows in
(term, first_doc, block_id) order, and ``build_index`` /
``compact_index`` write term-sorted files in ``POSTINGS_ROW_GROUP_SIZE``
groups, so a single-row term costs one row-group read per file.
"""

import hashlib
import shutil
from types import SimpleNamespace

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from fulltextsearch_ray.codecs import encode_posting_block
from fulltextsearch_ray.pipelines import build as build_mod
from fulltextsearch_ray.pipelines.build import build_index, compact_index
from fulltextsearch_ray.pipelines.query import IndexSearcher, PostingFileReader
from fulltextsearch_ray.stages.invert import (
    DOCSTATS_TERM_PREFIX,
    InvertStage,
    merge_runs_batch,
)
from fulltextsearch_ray.state.index import POSTINGS_SCHEMA


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


@pytest.fixture(scope="module")
def legacy_index(two_segment_index, tmp_path_factory):
    """``two_segment_index`` with every postings file rewritten the way
    the category-concatenating merge wrote them: rows out of term order,
    4,096-row groups.  Footer [min, max] ranges stay those of the fresh
    files, so the run catalog still matches."""
    idx = str(tmp_path_factory.mktemp("legacy") / "idx")
    shutil.copytree(two_segment_index, idx)
    rng = np.random.default_rng(11)
    for seg_ranges in IndexSearcher(idx)._seg_ranges.values():
        for p in seg_ranges[2]:
            t = pq.read_table(p)
            pq.write_table(t.take(rng.permutation(t.num_rows)), p, row_group_size=4096)
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
    cols = ["term", "block_id", "first_doc", "last_doc", "df", "docs", "fields", "tfs", "positions"]
    terms = s.terms.to_pylist()
    assert "the" in terms
    for term in terms:
        for seg in s.segments:
            mins, maxs, paths = s._seg_ranges[seg]
            want = [
                pq.read_table(p, columns=cols, filters=[("term", "=", term)])
                for p, lo, hi in zip(paths, mins, maxs)
                if lo <= term <= hi
            ]
            want = pa.concat_tables(want) if want else None
            got = s._read_term_rows(seg, term, cols)
            if want is None:
                assert got.num_rows == 0, (seg, term)
            else:
                assert got.equals(want), (seg, term)


def test_reader_matches_dataset_filter_read(two_segment_index):
    s = IndexSearcher(two_segment_index)
    assert len(s.segments) == 2 and set(s._seg_ranges) == set(s.segments)
    # a fresh build writes term-sorted files only
    assert _unsorted_files(s) == 0
    _assert_matches_dataset_filter_read(s)


def test_legacy_layout_matches_dataset_filter_read(legacy_index, two_segment_index):
    s = IndexSearcher(legacy_index)
    assert len(s.segments) == 2
    # the case a binary search within a row group would get wrong
    assert _unsorted_files(s) > 0
    assert all(
        pq.ParquetFile(p).metadata.num_row_groups == 1 for _seg, p in _postings_files(s)
    )
    _assert_matches_dataset_filter_read(s)
    fresh = IndexSearcher(two_segment_index)
    for q in ("the term3", "uniq5 term7 term39", "term0 term1 term2 the"):
        assert s.bm25_topk(q, k=10).equals(fresh.bm25_topk(q, k=10)), q


def test_footer_parsed_once_and_no_dataset_reads(two_segment_index, monkeypatch):
    s = IndexSearcher(two_segment_index)
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
