"""Compaction must carry the forward store, docs_meta and legacy
segments — regression tests for segment-merge data loss — and stay
safe to repeat: segment names derive from the inputs, orphaned segment
dirs are swept, mixed docs / docs_meta schemas unify, and a legacy
meta's unknown field count is recovered."""

import glob
import json
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data

from fulltextsearch_ray.pipelines.build import build_index, compact_index
from fulltextsearch_ray.pipelines.query import IndexSearcher
from fulltextsearch_ray.state.index import SEGMENTS_DIR, load_meta, segment_dir


def _tbl(ids, texts, metas=None):
    cols = {
        "doc_id": pa.array(ids, pa.int64()),
        "text": pa.array(texts, pa.string()),
    }
    if metas is not None:
        cols["meta"] = pa.array([json.dumps(m) for m in metas], pa.string())
    return pa.table(cols)


def test_compact_preserves_forward_and_metadata(ray_session, tmp_path):
    idx = str(tmp_path / "idx")
    kw = dict(text_col="text", doc_id_col="doc_id", meta_cols=("meta",), store_forward=True)
    build_index(
        ray.data.from_arrow(_tbl([1, 2], ["apple pie", "banana split"],
                                 [{"k": 1}, {"k": 2}])),
        idx, **kw,
    )
    build_index(
        ray.data.from_arrow(_tbl([3], ["cherry apple tart"], [{"k": 3}])),
        idx, **kw,
    )
    before = IndexSearcher(idx)
    assert before.has_forward
    want_search = before.search_to_string("WORD(apple)")
    want_pos = before.get_positions_many([3])

    compact_index(idx)

    after = IndexSearcher(idx)
    assert after.search_to_string("WORD(apple)") == want_search
    # forward store survived: positions served without re-tokenization
    assert after.has_forward
    assert after.get_positions_many([3]) == want_pos
    # per-doc metadata survived
    assert json.loads(after.get_metadata(2)["meta"]) == {"k": 2}
    assert json.loads(after.get_metadata(3)["meta"]) == {"k": 3}


def test_compact_mixed_meta_sessions(ray_session, tmp_path):
    """One session with meta_cols, one without: metadata stays
    reachable for BOTH after compaction (docs fallback per segment)."""
    idx = str(tmp_path / "idx")
    build_index(
        ray.data.from_arrow(_tbl([1], ["apple pie"], [{"k": 1}])),
        idx, text_col="text", doc_id_col="doc_id", meta_cols=("meta",),
    )
    build_index(
        ray.data.from_arrow(_tbl([2], ["banana split"])),
        idx, text_col="text", doc_id_col="doc_id",
    )
    compact_index(idx)
    s = IndexSearcher(idx)
    assert json.loads(s.get_metadata(1)["meta"]) == {"k": 1}
    assert s.get_metadata(2) == {}  # exists, no stored metadata — not a KeyError


def test_compact_legacy_segment_without_ndocs(ray_session, tmp_path):
    """A segment written before payload blobs and before n_docs (payloads
    inline in a postings parquet file without the n_docs column, a
    catalog without addresses) compacts with the answers it had."""
    import shutil

    from fulltextsearch_ray.state.payloads import ADDRESS_COLS, PAYLOAD_DIR, read_blob_rows

    idx = str(tmp_path / "idx")
    for tbl in (_tbl([1, 2], ["apple pie", "banana split"]),
                _tbl([3], ["cherry apple tart"])):
        build_index(ray.data.from_arrow(tbl), idx, text_col="text",
                    doc_id_col="doc_id")
    want = IndexSearcher(idx).search_to_string("WORD(apple)")
    # rewrite the first segment in that layout
    seg0 = sorted(glob.glob(os.path.join(idx, "segments", "*")))[0]
    os.makedirs(os.path.join(seg0, "postings"))
    for f in glob.glob(os.path.join(seg0, "catalog", "*.parquet")):
        cat = pq.read_table(f)
        rows = read_blob_rows(cat, seg0).drop_columns(["n_docs"])
        pq.write_table(rows, os.path.join(seg0, "postings", os.path.basename(f)))
        pq.write_table(cat.drop_columns(ADDRESS_COLS), f)
    shutil.rmtree(os.path.join(seg0, PAYLOAD_DIR))

    compact_index(idx)

    s = IndexSearcher(idx)
    assert s.search_to_string("WORD(apple)") == want
    assert s.bm25_topk("apple").num_rows > 0


def test_compact_streaming_store_rewrite(ray_session, tmp_path):
    """Past the file-count budget, forward/docs_meta merge as a Ray
    streaming rewrite (no per-file driver copies) — served results must
    be identical to the copy path (round-2 VERDICT #8)."""
    idx = str(tmp_path / "idx")
    kw = dict(text_col="text", doc_id_col="doc_id", meta_cols=("meta",), store_forward=True)
    build_index(
        ray.data.from_arrow(_tbl([1, 2], ["apple pie", "banana split"],
                                 [{"k": 1}, {"k": 2}])),
        idx, **kw,
    )
    build_index(
        ray.data.from_arrow(_tbl([3, 4], ["cherry apple tart", "mango apple fool"],
                                 [{"k": 3}, {"k": 4}])),
        idx, **kw,
    )
    before = IndexSearcher(idx)
    want_search = before.search_to_string("WORD(apple)")
    want_pos = {d: before.get_positions_many([d])[d] for d in (1, 2, 3, 4)}

    # budget 0 ⇒ every store takes the streaming path
    compact_index(idx, store_copy_file_budget=0)

    after = IndexSearcher(idx)
    assert after.search_to_string("WORD(apple)") == want_search
    assert after.has_forward
    for d in (1, 2, 3, 4):
        assert after.get_positions_many([d])[d] == want_pos[d], d
    for d in (1, 2, 3, 4):
        assert json.loads(after.get_metadata(d)["meta"]) == {"k": d}


def test_compact_streaming_rewrite_mixed_schemas(ray_session, tmp_path):
    """Streaming rewrite with a legacy (field_id-less) forward store
    and differing docs_meta schemas across sessions: normalization +
    per-schema-group rewrite keep every row served correctly."""
    idx = str(tmp_path / "idx")
    build_index(
        ray.data.from_arrow(_tbl([1], ["apple pie"], [{"k": 1}])),
        idx, text_col="text", doc_id_col="doc_id", meta_cols=("meta",), store_forward=True,
    )
    # strip field_id from session 1's forward files → legacy layout
    seg0 = load_meta(idx).segments[0]
    for f in glob.glob(os.path.join(segment_dir(idx, seg0), "forward", "**", "*.parquet"),
                       recursive=True):
        t = pq.read_table(f)
        if "field_id" in t.column_names:
            pq.write_table(t.drop_columns(["field_id"]), f)
    build_index(
        ray.data.from_arrow(_tbl([2], ["banana split"])),
        idx, text_col="text", doc_id_col="doc_id", store_forward=True,
    )
    before = IndexSearcher(idx)
    want_pos = {d: before.get_positions_many([d])[d] for d in (1, 2)}
    compact_index(idx, store_copy_file_budget=0)
    after = IndexSearcher(idx)
    for d in (1, 2):
        assert after.get_positions_many([d])[d] == want_pos[d], d
    assert json.loads(after.get_metadata(1)["meta"]) == {"k": 1}
    assert after.get_metadata(2) == {}


def test_repeated_compaction_is_safe_and_sweeps_orphans(ray_session, tmp_path):
    """Two compactions back-to-back (same wall-clock second) must not
    collide segment names — the old count+timestamp scheme deleted a
    LIVE compact segment.  Also: an orphaned segment dir (crash between
    a compaction's save_meta and its cleanup rmtree) is swept."""
    idx = str(tmp_path / "cidx")
    build_index(ray.data.from_arrow(_tbl([1], ["alpha beta"])), idx,
                doc_id_col="doc_id", overwrite=True)
    build_index(ray.data.from_arrow(_tbl([2], ["beta gamma"])), idx,
                doc_id_col="doc_id")
    m1 = compact_index(idx)
    first_compact = m1.segments[0]
    # two more sessions, then compact again IMMEDIATELY (same second)
    build_index(ray.data.from_arrow(_tbl([3], ["gamma delta"])), idx,
                doc_id_col="doc_id")
    build_index(ray.data.from_arrow(_tbl([4], ["delta epsilon"])), idx,
                doc_id_col="doc_id")
    # orphan dir simulating a crashed earlier compaction's leftovers
    orphan = os.path.join(idx, SEGMENTS_DIR, "seg-orphan")
    os.makedirs(orphan)
    m2 = compact_index(idx)
    assert m2.segments[0] != first_compact  # input-derived, no collision
    assert not os.path.exists(orphan)  # swept
    s = IndexSearcher(idx)
    assert s.search_to_string("WORD(beta)") != ""
    got = {int(d) for d in s.evaluate("OR(WORD(alpha),WORD(epsilon))").docs}
    assert got == {1, 4}
    assert load_meta(idx).num_docs == 4


def test_compact_unifies_mixed_docs_schemas(ray_session, tmp_path):
    """A legacy segment whose docs table carries extra metadata columns
    must still compact with a current segment (plain concat raised
    ArrowInvalid — the index could never be compacted)."""
    idx = str(tmp_path / "midx")
    build_index(ray.data.from_arrow(_tbl([1], ["alpha beta"])), idx,
                doc_id_col="doc_id", overwrite=True)
    build_index(ray.data.from_arrow(_tbl([2], ["beta gamma"])), idx,
                doc_id_col="doc_id")
    # make segment 0's docs table legacy-shaped: extra 'lang' column
    seg0 = segment_dir(idx, load_meta(idx).segments[0])
    f = glob.glob(os.path.join(seg0, "docs", "**", "*.parquet"), recursive=True)[0]
    t = pq.read_table(f)
    t = t.append_column("lang", pa.array(["en"] * t.num_rows))
    pq.write_table(t, f)
    compact_index(idx)
    s = IndexSearcher(idx)
    assert {int(d) for d in s.evaluate("WORD(beta)").docs} == {1, 2}
    # the legacy metadata column survives (null for the other segment)
    assert s.get_metadata(1).get("lang") == "en"
    assert s.get_metadata(2).get("lang") is None


def test_compact_recovers_num_fields_for_legacy_meta(ray_session, tmp_path):
    """num_fields=0 (legacy meta, field count unknown) forces the
    loosest BM25 prune bound; compaction rewrites every posting row,
    so it must derive the true count from the fields column instead of
    leaving the index degraded forever."""
    idx = str(tmp_path / "idx")
    kw = dict(
        text_col="title", text_cols=["title", "body"], doc_id_col="doc_id"
    )

    def tbl(ids, titles, bodies):
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "title": pa.array(titles, pa.string()),
                "body": pa.array(bodies, pa.string()),
            }
        )

    build_index(ray.data.from_arrow(tbl([1, 2], ["apple pie", "rye loaf"],
                                        ["banana bread", "oat cake"])), idx, **kw)
    build_index(ray.data.from_arrow(tbl([3], ["cherry tart"], ["plum jam"])), idx, **kw)
    # forge a legacy meta: drop the field-count key entirely
    meta_path = os.path.join(idx, "meta.json")
    m = json.loads(open(meta_path).read())
    del m["num_fields"]
    with open(meta_path, "w") as f:
        json.dump(m, f)
    meta = compact_index(idx)
    assert meta.num_fields == 2


def test_compact_mixed_meta_columns_both_survive(ray_session, tmp_path):
    """Two sessions with DIFFERENT meta columns compact into one
    docs_meta dir of mixed schemas; a directory-level read inferred
    the schema from the first fragment and silently dropped the other
    session's column — per-file reads keep both."""
    idx = str(tmp_path / "idx")
    build_index(
        ray.data.from_arrow(pa.table({
            "doc_id": pa.array([1], pa.int64()),
            "text": pa.array(["apple pie"], pa.string()),
            "alpha": pa.array(["A1"], pa.string()),
        })),
        idx, text_col="text", doc_id_col="doc_id", meta_cols=("alpha",),
    )
    build_index(
        ray.data.from_arrow(pa.table({
            "doc_id": pa.array([2], pa.int64()),
            "text": pa.array(["banana split"], pa.string()),
            "beta": pa.array(["B2"], pa.string()),
        })),
        idx, text_col="text", doc_id_col="doc_id", meta_cols=("beta",),
    )
    compact_index(idx)
    s = IndexSearcher(idx)
    assert s.get_metadata(1).get("alpha") == "A1"
    assert s.get_metadata(2).get("beta") == "B2"
