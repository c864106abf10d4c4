"""The index format number: every writer stamps ``FORMAT_VERSION``,
every reader refuses another number (or none) with an error naming
``compact_index``, and ``compact_index`` migrates each older shape into
an index that answers as a fresh build does.

The older shapes here are forged from a fresh two-field index with a
forward store: a header of format 1 (what indexes written before the
number was checked say), a header without a number, a header without
``num_fields``, manifests without footer stats, without ``block_cf`` or
with the retired postings run-catalog keys, and a forward store without
``field_id`` (migrated by the driver and the Ray paths of the
doc-keyed tables' merge).  The pre-blob layout is covered in
tests/test_posting_reader.py.  Also the writer guarantee the searcher
relies on: manifest footer stats never miss a row group.
"""

import glob
import json
import os
import shutil

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray.data

from fulltextsearch_ray.functions import common
from fulltextsearch_ray.pipelines import build as build_mod
from fulltextsearch_ray.pipelines.build import build_index, compact_index
from fulltextsearch_ray.pipelines.memory import build_in_memory
from fulltextsearch_ray.pipelines.query import IndexSearcher
from fulltextsearch_ray.state.index import (
    FORMAT_VERSION,
    SEGMENTS_DIR,
    load_meta,
    segment_dir,
)

A = [
    "the quick brown fox jumps over the lazy dog",
    "pack my box with five dozen liquor jugs",
    "how vexingly quick daft zebras jump",
    "the five boxing wizards jump quickly",
    "sphinx of black quartz judge my vow",
    "quick zephyrs blow vexing daft jim",
] * 4
B = ["quick quick fox" if i % 3 == 0 else "" for i in range(len(A))]
QUERIES = ("quick fox", "lazy dog", "jump five", "quick zebras vow")
KW = dict(text_col="a", text_cols=["a", "b"], doc_id_col="doc_id", store_forward=True)


def _docs(lo, hi):
    return ray.data.from_arrow(pa.table({
        "doc_id": pa.array(range(lo, hi), pa.int64()), "a": A[lo - 1:hi - 1], "b": B[lo - 1:hi - 1],
    }))


@pytest.fixture(scope="module")
def fresh_index(ray_session, tmp_path_factory):
    idx = str(tmp_path_factory.mktemp("fresh") / "idx")
    build_index(_docs(1, len(A) + 1), idx, overwrite=True, **KW)
    return idx


def _edit_json(path, drop=(), **update):
    with open(path) as f:
        d = json.load(f)
    d.update(update)
    for k in drop:
        del d[k]
    with open(path, "w") as f:
        json.dump(d, f)


def _edit_manifests(idx, drop=(), **update):
    for seg in load_meta(idx).segments:
        _edit_json(os.path.join(segment_dir(idx, seg), "manifest.json"), drop, **update)


def _strip_forward_field_ids(idx):
    """A forward store from before field ids: field-1 rows only."""
    for seg in load_meta(idx).segments:
        for f in glob.glob(os.path.join(segment_dir(idx, seg), "forward", "**", "*.parquet"), recursive=True):
            t = pq.read_table(f)
            t = t.filter(pc.equal(t["field_id"], 1)).drop_columns(["field_id"])
            pq.write_table(t, f)


# shape name → (forge its segments, the header keys it lacks, whether
# compact_index runs past GATHER_BYTES: the Ray path of the doc-keyed
# tables); every shape's header says format 1 unless it lacks the number
SHAPES = {
    "format_1": (None, (), False),
    "unnumbered": (None, ("version",), False),
    "meta_without_num_fields": (None, ("num_fields",), False),
    "manifest_without_stats": (
        lambda idx: _edit_manifests(idx, drop=["catalog_stats", "docs_stats"]), (), False,
    ),
    "manifest_without_block_cf": (lambda idx: _edit_manifests(idx, drop=["block_cf"]), (), False),
    "manifest_retired_keys": (
        lambda idx: _edit_manifests(
            idx, file_ranges=[["postings/part-0.parquet", "black", "zephyrs"]], num_buckets=4,
        ),
        (), False,
    ),
    "forward_without_field_id_copy": (_strip_forward_field_ids, (), False),
    "forward_without_field_id_stream": (_strip_forward_field_ids, (), True),
}


def _older_index(fresh, root, shape):
    idx = str(root / shape)
    shutil.copytree(fresh, idx)
    forge_segments, header_drop, _ray_path = SHAPES[shape]
    if forge_segments:
        forge_segments(idx)
    _edit_json(os.path.join(idx, "meta.json"), header_drop, version=1)
    return idx


def _assert_answers_equal(got: IndexSearcher, want: IndexSearcher):
    terms = want.terms.to_pylist()
    if got.terms is not None:  # eager catalog
        assert got.terms.to_pylist() == terms
    assert got._min_block_cf == want._min_block_cf
    assert got.meta.num_fields == want.meta.num_fields
    for t in terms:
        assert got.term_stats(t) == want.term_stats(t), t
        assert got._term_upper_bound(t) == want._term_upper_bound(t), t
    for q in QUERIES:
        for k in (2, 5):
            assert got.bm25_topk(q, k=k).equals(want.bm25_topk(q, k=k)), (q, k)
            assert got.bm25_topk_pruned(q.split(), k=k).equals(want.bm25_topk_pruned(q.split(), k=k))
        word = f"WORD({q.split()[0]})"
        assert got.search_to_string(word) == want.search_to_string(word)
    ids = range(1, len(A) + 1)
    assert got.get_positions_many(ids) == want.get_positions_many(ids)


@pytest.mark.parametrize("shape", list(SHAPES))
def test_older_shape_refused_then_migrated(fresh_index, tmp_path, monkeypatch, shape):
    """Each older shape: the searcher (eager and paged) and an
    incremental build refuse it naming compact_index, the build before
    it creates a segment directory; compact_index rewrites it in this
    format, and the result answers as the fresh index does."""
    idx = _older_index(fresh_index, tmp_path, shape)
    for budget in (2_000_000, 0):
        with pytest.raises(ValueError, match=f"index {idx}: .*compact_index"):
            IndexSearcher(idx, catalog_budget_rows=budget, doclen_budget_rows=budget)
    segs = sorted(os.listdir(os.path.join(idx, SEGMENTS_DIR)))
    with pytest.raises(ValueError, match="compact --index DIR"):
        build_index(_docs(1, 3), idx, **KW)
    assert sorted(os.listdir(os.path.join(idx, SEGMENTS_DIR))) == segs

    if SHAPES[shape][2]:
        monkeypatch.setattr(common, "GATHER_BYTES", -1)
    meta = compact_index(idx)
    assert meta.version == load_meta(idx).version == FORMAT_VERSION
    (seg,) = meta.segments
    assert seg not in segs
    want = IndexSearcher(fresh_index)
    for budget in (2_000_000, 0):
        _assert_answers_equal(
            IndexSearcher(idx, catalog_budget_rows=budget, doclen_budget_rows=budget), want,
        )
    # once migrated, a second compaction has nothing to do
    assert compact_index(idx).segments == [seg]


def test_every_writer_stamps_format_version(fresh_index, tmp_path):
    """build_index, compact_index and build_in_memory all write the one
    format number."""
    def on_disk(idx):
        with open(os.path.join(idx, "meta.json")) as f:
            return json.load(f)["version"]

    assert on_disk(fresh_index) == FORMAT_VERSION
    idx = str(tmp_path / "two")
    build_index(_docs(1, 10), idx, **KW)
    build_index(_docs(10, 20), idx, **KW)
    assert on_disk(idx) == FORMAT_VERSION
    assert compact_index(idx).version == on_disk(idx) == FORMAT_VERSION
    mem = build_in_memory(_docs(1, 10), text_col="a", text_cols=["a", "b"], doc_id_col="doc_id")
    assert mem.meta.version == FORMAT_VERSION


def test_segment_without_manifest_refused(fresh_index, tmp_path):
    """A listed segment whose manifest is gone is refused by name, not
    served from a directory listing."""
    idx = str(tmp_path / "idx")
    shutil.copytree(fresh_index, idx)
    (seg,) = load_meta(idx).segments
    os.remove(os.path.join(segment_dir(idx, seg), "manifest.json"))
    with pytest.raises(ValueError, match=f"segment {seg} has no readable manifest"):
        IndexSearcher(idx)


def test_table_stats_cover_every_row_group(tmp_path):
    """The manifest footer stats the searcher pages by: an empty table
    (one 0-row group without statistics) has no group; a non-empty
    group without key statistics fails the build."""
    seg = tmp_path / "seg"
    (seg / "t").mkdir(parents=True)
    pq.write_table(pa.table({"term": pa.array([], pa.string())}), seg / "t" / "a.parquet")
    pq.write_table(
        pa.table({"term": ["x", "y", "z"]}), seg / "t" / "b.parquet", row_group_size=2,
    )
    stats = build_mod._scan_table_stats(str(seg / "t"), str(seg))
    assert stats["t/a.parquet"] == {"num_rows": 0, "columns": ["term"], "row_groups": []}
    assert stats["t/b.parquet"]["row_groups"] == [["x", "y", 2], ["z", "z", 1]]
    pq.write_table(pa.table({"term": ["x"]}), seg / "t" / "c.parquet", write_statistics=False)
    with pytest.raises(ValueError, match="c.parquet: row group 0 has no key statistics"):
        build_mod._scan_table_stats(str(seg / "t"), str(seg))
