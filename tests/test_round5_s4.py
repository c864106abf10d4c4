"""Round-5 session-4 review-fix regressions: catalog MemoryError
fallback, segment rebuild and searcher/FST cache invalidation."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data


def test_build_catalog_memoryerror_falls_back_to_ray(ray_session, tmp_path, monkeypatch):
    """The driver-side catalog aggregate routing to the Ray groupby on
    MemoryError was dropped in a refactor; a driver that cannot hold
    the block stats must still complete the build via the fallback."""
    import pyarrow.parquet as pq

    from fulltextsearch_ray.pipelines.build import _build_catalog, build_index
    from fulltextsearch_ray.state.index import load_meta, segment_dir

    tbl = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.uint64()),
        "text": pa.array(["hello world", "hello ray data", "world of search"]),
    })
    idx = str(tmp_path / "memidx")
    build_index(ray.data.from_arrow(tbl), idx, doc_id_col="doc_id",
                num_buckets=2, overwrite=True)
    seg = segment_dir(idx, load_meta(idx).segments[0])
    import os
    import shutil

    cat_dir = os.path.join(seg, "catalog")
    want = pq.read_table(cat_dir).sort_by("term")
    shutil.rmtree(cat_dir)

    real_read = pq.read_table

    def bomb(path, *a, **kw):
        # the driver path reads the postings files one by one
        if isinstance(path, str) and os.path.basename(os.path.dirname(path)) == "postings":
            raise MemoryError("driver cannot hold block stats")
        return real_read(path, *a, **kw)

    monkeypatch.setattr(pq, "read_table", bomb)
    n_terms, n_occ = _build_catalog(seg)
    monkeypatch.undo()
    got = pq.read_table(cat_dir).sort_by("term")
    assert n_terms == want.num_rows
    assert got.select(want.column_names).cast(want.schema).equals(want)


def _mini_tbl(ids, words):
    return pa.table({
        "doc_id": pa.array(ids, pa.uint64()),
        "text": pa.array(words),
    })


def test_rebuild_of_listed_segment_does_not_double_count(ray_session, tmp_path):
    """A segment listed in meta whose manifest is lost gets rebuilt;
    meta.num_docs/total_tokens must be RECOMPUTED from manifests, not
    incremented on top of the previously-counted totals (the old +=
    permanently inflated avgdl → silently wrong BM25)."""
    import os

    import ray.data

    from fulltextsearch_ray.pipelines.build import build_index
    from fulltextsearch_ray.state.index import load_meta, segment_dir

    idx = str(tmp_path / "ridx")
    src = ray.data.from_arrow(_mini_tbl([1, 2], ["aa bb cc", "dd ee"]))
    build_index(src, idx, doc_id_col="doc_id", segment="seg-00000",
                num_buckets=2, overwrite=True)
    before = load_meta(idx)
    assert before.num_docs == 2 and before.total_tokens == 5
    # lose the manifest: segment now listed but "incomplete"
    os.remove(os.path.join(segment_dir(idx, "seg-00000"), "manifest.json"))
    build_index(src, idx, doc_id_col="doc_id", segment="seg-00000",
                num_buckets=2)
    after = load_meta(idx)
    assert after.num_docs == 2, "rebuild double-counted num_docs"
    assert after.total_tokens == 5, "rebuild double-counted total_tokens"


def test_get_searcher_cache_invalidated_by_rebuild(ray_session, tmp_path):
    """An in-process incremental build/compaction must invalidate the
    get_searcher cache (stale searchers silently omitted new docs and
    crashed on compacted-away segment dirs)."""
    import ray.data

    from fulltextsearch_ray.pipelines.build import build_index, compact_index
    from fulltextsearch_ray.pipelines.query import get_searcher

    idx = str(tmp_path / "gidx")
    build_index(ray.data.from_arrow(_mini_tbl([1], ["alpha beta"])), idx,
                doc_id_col="doc_id", num_buckets=2, overwrite=True)
    s1 = get_searcher(idx)
    assert {int(d) for d in s1.evaluate("WORD(beta)").docs} == {1}
    build_index(ray.data.from_arrow(_mini_tbl([2], ["beta gamma"])), idx,
                doc_id_col="doc_id", num_buckets=2)
    s2 = get_searcher(idx)
    assert s2 is not s1
    assert {int(d) for d in s2.evaluate("WORD(beta)").docs} == {1, 2}
    compact_index(idx)
    s3 = get_searcher(idx)
    assert s3 is not s2
    assert {int(d) for d in s3.evaluate("WORD(beta)").docs} == {1, 2}


def test_fst_sidecar_load_detects_concurrent_rebuild(ray_session, tmp_path):
    """load_fst_sidecar re-reads fst.json after the shard/image bytes:
    a rebuild racing the load (json swapped between the two reads) must
    yield None — old ranges paired with new shard bytes would route
    terms to the wrong shard."""
    import json
    import os

    import ray.data

    from fulltextsearch_ray.pipelines.build import build_index
    from fulltextsearch_ray.state import fst_store
    from fulltextsearch_ray.state.fst_store import (
        build_fst_sidecar,
        fst_dir,
        load_fst_sidecar,
    )
    from fulltextsearch_ray.state.index import load_meta

    idx = str(tmp_path / "fidx")
    build_index(ray.data.from_arrow(_mini_tbl([1], ["alpha beta gamma"])), idx,
                doc_id_col="doc_id", num_buckets=2, overwrite=True)
    segs = list(load_meta(idx).segments)
    # force the SHARDED layout (1 term/shard): the race window is the
    # shard-read loop between the two fst.json reads
    build_fst_sidecar(idx, shard_terms=1)
    assert load_fst_sidecar(idx, segs) is not None  # clean load works

    # simulate a racing rebuild: first Fst construction mutates fst.json
    meta_path = os.path.join(fst_dir(idx), "fst.json")
    real_fst = fst_store.Fst
    tripped = {"done": False}

    class RacingFst(real_fst):
        def __init__(self, img):
            if not tripped["done"]:
                tripped["done"] = True
                info = json.load(open(meta_path))
                info["n_bytes"] = info.get("n_bytes", 0) + 1  # any change
                json.dump(info, open(meta_path, "w"))
            super().__init__(img)

    fst_store.Fst = RacingFst
    try:
        assert load_fst_sidecar(idx, segs) is None
    finally:
        fst_store.Fst = real_fst
        build_fst_sidecar(idx, shard_terms=1)  # restore a clean sidecar
    assert load_fst_sidecar(idx, segs) is not None
