"""Round-5 session-4 review-fix regressions: catalog MemoryError
fallback, list-offset overflow fallback."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data


def test_vec_list_array_large_offsets_fallback(monkeypatch):
    """Past the int32 offset ceiling the column switches to 64-bit
    LargeList offsets instead of silently wrapping negative (the old
    .astype(np.int32) built a corrupt column)."""
    from fulltextsearch_ray.functions import common

    m = np.arange(12, dtype=np.float64).reshape(4, 3)
    small = common.vec_list_array(m)
    assert small.type == pa.list_(pa.float64())
    monkeypatch.setattr(common, "_LIST_OFFSET_MAX", 5)  # 12 values > 5
    big = common.vec_list_array(m)
    assert big.type == pa.large_list(pa.float64())
    assert big.to_pylist() == small.to_pylist() == m.tolist()


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


def test_to_matrix_rejects_null_and_ragged_rows():
    """A null embedding row used to silently shift every later vector
    when the shrunken flat size still divided the row count (1023·1024
    ≡ 0 mod 1024) — now a loud ValueError; ragged rows likewise."""
    from fulltextsearch_ray.functions.similarity import _to_matrix

    ok = pa.table({"embedding": pa.array([[1.0, 2.0], [3.0, 4.0]],
                                         pa.list_(pa.float64()))})
    assert _to_matrix(ok, "embedding").shape == (2, 2)
    withnull = pa.table({"embedding": pa.array([[1.0, 2.0], None],
                                               pa.list_(pa.float64()))})
    with pytest.raises(ValueError, match="null embedding"):
        _to_matrix(withnull, "embedding")
    ragged = pa.table({"embedding": pa.array([[1.0, 2.0], [3.0]],
                                             pa.list_(pa.float64()))})
    with pytest.raises(ValueError, match="ragged"):
        _to_matrix(ragged, "embedding")
    empty = pa.table({"embedding": pa.array([], pa.list_(pa.float64()))})
    assert _to_matrix(empty, "embedding").shape == (0, 0)


def test_list_array_auto_large_offsets(monkeypatch):
    """Past the int32 ceiling the span-cut text rebuild switches to
    LargeList offsets; binary_join output stays plain string."""
    import pyarrow.compute as pcc

    from fulltextsearch_ray.functions import common

    offs = np.array([0, 2, 3], dtype=np.int64)
    vals = pa.array(["a", "b", "c"])
    small = common.list_array_auto(offs, vals)
    assert small.type == pa.list_(pa.string())
    monkeypatch.setattr(common, "_LIST_OFFSET_MAX", 2)
    big = common.list_array_auto(offs, vals)
    assert big.type == pa.large_list(pa.string())
    assert pcc.binary_join(big, " ").to_pylist() == ["a b", "c"]
    assert pcc.binary_join(big, " ").type == pa.string()


def test_sampled_ivf_budget_enforced_in_combiner(ray_session):
    """The train budget must fire (bounded) even when the hash sample
    is far larger than the budget — the old post-gather check would
    have concatenated the whole oversized sample on the driver first."""
    import ray.data

    from fulltextsearch_ray.functions.similarity import sampled_ivf_centroids

    rng = np.random.default_rng(11)
    n = 400
    tbl = pa.table({
        "vec_id": pa.array(range(n), pa.int64()),
        "embedding": pa.array([list(map(float, v)) for v in rng.normal(size=(n, 8))],
                              pa.list_(pa.float64())),
    })
    ds = ray.data.from_arrow(tbl)
    with pytest.raises((ValueError, Exception), match="train_budget"):
        sampled_ivf_centroids(ds, n_clusters=4, train_mod=1, train_budget=8)
    # under the budget: unchanged behavior
    c = sampled_ivf_centroids(ds, n_clusters=4, train_mod=1, train_budget=10_000)
    assert c.shape == (4, 8)
