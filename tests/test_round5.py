"""Round-5 fixes: auto-FST lazy EDIT, tree-reduced top_terms, kvstore
crash ordering, FST-store advice items, topk pair dedup.  (The
manifest-cached footer stats tests live in tests/test_posting_reader.py.)"""

from __future__ import annotations

import os
from types import SimpleNamespace

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

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

    from fulltextsearch_ray.pipelines.build import build_index

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


# -- auto-FST sidecar accelerates lazy-mode EDIT/WILD ------------------------


def test_lazy_edit_uses_fst_sidecar(built_index):
    """With a fresh sidecar, a lazy-mode EDIT expansion must not page
    the whole catalog; results identical to the paged scan."""
    from fulltextsearch_ray.pipelines.query import IndexSearcher
    from fulltextsearch_ray.state.fst_store import build_fst_sidecar

    # paged scan baseline (no sidecar yet)
    plain = IndexSearcher(built_index, catalog_budget_rows=0)
    assert plain._auto_fst is None
    base = plain.lookup("EDIT(quick,1)")
    loads_full_scan = sum(c.loads for c in plain._lazy_cats)
    assert loads_full_scan >= sum(len(c) for c in plain._lazy_cats)

    build_fst_sidecar(built_index)
    s = IndexSearcher(built_index, catalog_budget_rows=0)
    # the sidecar loads LAZILY, on the first pattern expansion — cold
    # start never reads the O(vocabulary) image
    assert s._auto_fst is None and s._auto_fst_pending
    got = s.lookup("EDIT(quick,1)")
    assert s._auto_fst is not None and not s._auto_fst_pending
    assert got == base and got  # non-trivial match set
    assert sum(c.loads for c in s._lazy_cats) == 0  # no catalog paging
    # WILD goes through the sidecar too
    assert s.lookup("WILD(qui*)") == plain.lookup("WILD(qui*)")
    # occurrence-level query parity (posting fetches still page, but
    # only for the matched terms)
    assert s.search_to_string("EDIT(quick,1)") == plain.search_to_string("EDIT(quick,1)")
    # a pure WORD/BM25 workload on a fresh searcher never loads the image
    w = IndexSearcher(built_index, catalog_budget_rows=0)
    assert w.bm25_topk("quick fox", k=3)
    assert w.lookup("WORD(quick)")
    assert w._auto_fst is None and w._auto_fst_pending


def test_stale_fst_sidecar_falls_back(built_index, tmp_path):
    """A sidecar built over different segments is ignored."""
    import json
    import shutil

    from fulltextsearch_ray.pipelines.query import IndexSearcher
    from fulltextsearch_ray.state.fst_store import build_fst_sidecar, fst_dir

    idx = str(tmp_path / "stale")
    shutil.copytree(built_index, idx)
    build_fst_sidecar(idx)
    meta_path = os.path.join(fst_dir(idx), "fst.json")
    with open(meta_path) as f:
        info = json.load(f)
    info["segments"] = ["someother-segment"]
    with open(meta_path, "w") as f:
        json.dump(info, f)
    s = IndexSearcher(idx, catalog_budget_rows=0)
    assert s._auto_fst is None
    assert s.lookup("EDIT(quick,1)")  # paged fallback still works


# -- tree-reduced top_terms ---------------------------------------------------


def test_top_terms_tree_reduce_bounded_driver(built_index):
    from fulltextsearch_ray.functions.similarity import _REDUCE_FANIN
    from fulltextsearch_ray.pipelines.query import IndexSearcher

    s = IndexSearcher(built_index)
    stats: dict = {}
    top = s.top_terms(5, stats=stats)
    assert top.num_rows == 5
    assert stats["driver_rows"] <= _REDUCE_FANIN * 5
    # parity with a full driver-side sort over the eager catalog
    cf = s._cf
    order = np.lexsort((s._terms_np, -cf))[:5]
    expect = [str(t) for t in s._terms_np[order]]
    assert top["term"].to_pylist() == expect


# -- kvstore: crash-ordering + descriptive corruption errors ------------------


@pytest.mark.parametrize("kind", ["btree", "hash", "list"])
def test_kvstore_truncated_file_raises_corrupt(tmp_path, kind):
    from fulltextsearch_ray.state.kvstore import open_metadata_store

    path = str(tmp_path / f"{kind}.bin")
    with open_metadata_store(path, kind) as st:
        for i in range(50):
            st.save(i, b"v%d" % i * 20)
    # tear the tail off the file: some pointer now runs past EOF
    size = os.path.getsize(path)
    with open(path, "r+b") as f:
        f.truncate(size - 25)
    st = open_metadata_store(path, kind)
    hits = errors = 0
    for i in range(50):
        try:
            if st.get(i) is not None:
                hits += 1
        except ValueError as e:
            assert "corrupt store" in str(e)
            errors += 1
    st.close()
    assert errors >= 1  # torn record surfaces as the descriptive error
    assert hits >= 1  # earlier records still readable


# -- fst_store advice items ----------------------------------------------------


def test_fst_iter_segment_terms_breaks_truncated_ties(tmp_path, monkeypatch):
    """Writer-truncated min statistics that tie across row-group runs
    must be re-ordered by each run's TRUE first term."""
    import fulltextsearch_ray.state.fst_store as fs

    seg = tmp_path / "segments" / "s0" / "catalog"
    seg.mkdir(parents=True)
    # lexically FIRST filename holds the LATER terms: a tie broken by
    # filename (the old behavior) would emit them out of order
    pq.write_table(pa.table({"term": pa.array(["abcx", "abcy"])}), seg / "a.parquet")
    pq.write_table(pa.table({"term": pa.array(["abca", "abcb"])}), seg / "b.parquet")
    real_pq = fs.pq

    class TruncPF:
        def __init__(self, path):
            self._pf = real_pq.ParquetFile(path)

        @property
        def metadata(self):
            md = self._pf.metadata

            def rg(i):
                g = md.row_group(i)
                st = g.column(0).statistics
                return SimpleNamespace(
                    num_rows=g.num_rows,
                    column=lambda j: SimpleNamespace(
                        statistics=SimpleNamespace(has_min_max=True, min=st.min[:3])
                    ),
                )

            return SimpleNamespace(num_row_groups=md.num_row_groups, row_group=rg)

        def read_row_group(self, i, columns=None):
            return self._pf.read_row_group(i, columns=columns)

    monkeypatch.setattr(
        fs,
        "pq",
        SimpleNamespace(ParquetFile=TruncPF, ParquetDataset=real_pq.ParquetDataset),
    )
    got = list(fs._iter_segment_terms(str(tmp_path), "s0"))
    assert got == ["abca", "abcb", "abcx", "abcy"]


def test_fst_iter_segment_terms_single_statless_group(tmp_path, monkeypatch):
    """ONE row group without key statistics (foreign writer) must be
    keyed by its true first term — not a placeholder that sorts it
    before every real run; empty row groups are skipped entirely."""
    import fulltextsearch_ray.state.fst_store as fs

    seg = tmp_path / "segments" / "s0" / "catalog"
    seg.mkdir(parents=True)
    # lexically FIRST file carries the LATER terms and will lose stats
    pq.write_table(pa.table({"term": pa.array(["mmm", "nnn"])}), seg / "a.parquet")
    pq.write_table(pa.table({"term": pa.array(["aaa", "bbb"])}), seg / "b.parquet")
    pq.write_table(pa.table({"term": pa.array([], pa.string())}), seg / "c.parquet")
    real_pq = fs.pq

    class NoStatsPF:
        def __init__(self, path):
            self._pf = real_pq.ParquetFile(path)
            self._strip = str(path).endswith("a.parquet")

        @property
        def metadata(self):
            md = self._pf.metadata
            strip = self._strip

            def rg(i):
                g = md.row_group(i)
                stats = None if strip else g.column(0).statistics
                return SimpleNamespace(
                    num_rows=g.num_rows,
                    column=lambda j: SimpleNamespace(statistics=stats),
                )

            return SimpleNamespace(num_row_groups=md.num_row_groups, row_group=rg)

        def read_row_group(self, i, columns=None):
            return self._pf.read_row_group(i, columns=columns)

    monkeypatch.setattr(
        fs,
        "pq",
        SimpleNamespace(ParquetFile=NoStatsPF, ParquetDataset=real_pq.ParquetDataset),
    )
    got = list(fs._iter_segment_terms(str(tmp_path), "s0"))
    assert got == ["aaa", "bbb", "mmm", "nnn"]


def test_sharded_fst_sequential_writes_at_dispatch(tmp_path):
    """Non-Ray sharded build: shard files exist on disk as soon as the
    meta is written, and the loaded union matches the vocabulary (the
    advice item: the driver must not hold every shard image)."""
    import ray

    from fulltextsearch_ray.pipelines.build import build_index
    from fulltextsearch_ray.state import fst_store

    # run sequentially even inside the test Ray session
    idx = str(tmp_path / "idx")
    import ray.data

    ds = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(range(1, 7), pa.int64()),
                "text": pa.array(DOCS[:6], pa.string()),
            }
        )
    )
    build_index(ds, idx, text_col="text", doc_id_col="doc_id", num_buckets=2, overwrite=True)

    orig = ray.is_initialized

    try:
        ray.is_initialized = lambda: False  # force the sequential path
        info = fst_store.build_fst_sidecar(idx, shard_terms=5)
    finally:
        ray.is_initialized = orig
    assert len(info["shards"]) >= 2
    from fulltextsearch_ray.state.index import load_meta

    fst = fst_store.load_fst_sidecar(idx, list(load_meta(idx).segments))
    terms = [t for t, _ in fst.items()]
    expect = sorted(set(fst_store.iter_index_terms(idx, list(load_meta(idx).segments))))
    assert terms == expect


# -- LazyRowGroupTable: stat-less row groups degrade, not refuse ---------------


def test_lazy_table_statless_file_served_by_key_scan(tmp_path):
    from fulltextsearch_ray.pipelines.query import LazyRowGroupTable

    f = str(tmp_path / "nostats.parquet")
    t = pa.table({"term": pa.array(["alpha", "beta", "gamma"]), "df": pa.array([1, 2, 3])})
    pq.write_table(t, f, write_statistics=False)
    lt = LazyRowGroupTable([f], ["term", "df"])
    assert len(lt) == 1
    idxs = lt.covering("beta")
    assert idxs and lt.load(idxs[0])["term"].to_pylist() == ["alpha", "beta", "gamma"]


# -- _topk_reduce_arrays: ULP-different duplicate pair occupies one slot ------


def test_topk_dedup_keeps_one_slot_for_ulp_duplicates():
    from fulltextsearch_ray.functions.similarity import _topk_reduce_arrays

    qs = np.array([7, 7, 7, 7], dtype=np.int64)
    ns = np.array([1, 1, 2, 3], dtype=np.int64)
    ss = np.array([0.9, np.nextafter(0.9, 1.0), 0.5, 0.4], dtype=np.float64)
    oq, on, os_, rank = _topk_reduce_arrays(qs, ns, ss, k=2)
    assert on.tolist() == [1, 2]  # neighbor 1 once (max score), not twice
    assert os_[0] == np.nextafter(0.9, 1.0)
    assert rank.tolist() == [0, 1]


# -- fifth review-pass fixes -------------------------------------------------


def test_composite_key_injective_and_order_preserving():
    """Distinct id tuples must never collide (bare-NUL join let
    ('x\\x00y','z') == ('x','y\\x00z')) and concatenated order must
    equal tuple order."""
    from fulltextsearch_ray.sources.corpus import _composite_key

    tuples = [
        ("x\x00y", "z"),
        ("x", "y\x00z"),
        ("x", "y"),
        ("x", "y\x00"),
        ("x\x00", "y"),
        ("a", "b"),
        ("a\x00b", ""),
    ]
    tbl = pa.table({"r": pa.array([t[0] for t in tuples]), "p": pa.array([t[1] for t in tuples])})
    keys = _composite_key(tbl, ["r", "p"]).to_pylist()
    assert len(set(keys)) == len(tuples)  # injective
    order_by_key = sorted(range(len(tuples)), key=lambda i: keys[i])
    order_by_tuple = sorted(range(len(tuples)), key=lambda i: tuples[i])
    assert order_by_key == order_by_tuple
    # null components fail loudly, not as a worker-task TypeError
    bad = pa.table({"r": pa.array(["a", None]), "p": pa.array(["b", "c"])})
    with pytest.raises(ValueError, match="contains nulls"):
        _composite_key(bad, ["r", "p"])


def test_write_synth_corpus_regenerates_on_param_change(tmp_path):
    import pyarrow.parquet as pq

    from fulltextsearch_ray.sources.corpus import write_synth_corpus

    d = str(tmp_path / "corpus")
    write_synth_corpus(d, 250, rows_per_file=100)
    total = sum(pq.ParquetFile(f).metadata.num_rows
                for f in sorted((tmp_path / "corpus").glob("*.parquet")))
    assert total == 250
    # growing n_rows must NOT resume onto the stale short final shard
    write_synth_corpus(d, 300, rows_per_file=100)
    total = sum(pq.ParquetFile(f).metadata.num_rows
                for f in sorted((tmp_path / "corpus").glob("*.parquet")))
    assert total == 300
    # same params = true resume (files untouched)
    mtimes = {f.name: f.stat().st_mtime_ns for f in (tmp_path / "corpus").glob("*.parquet")}
    write_synth_corpus(d, 300, rows_per_file=100)
    assert {f.name: f.stat().st_mtime_ns for f in (tmp_path / "corpus").glob("*.parquet")} == mtimes


def test_fetch_to_dir_basename_collision(tmp_path):
    from fulltextsearch_ray.sources.enwiki import fetch_to_dir

    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir(), b.mkdir()
    (a / "dump.txt").write_text("shard-a")
    (b / "dump.txt").write_text("shard-b")
    dest = str(tmp_path / "mirror")
    got = fetch_to_dir([f"file://{a}/dump.txt", f"file://{b}/dump.txt"], dest)
    assert len(got) == 2 and len(set(got)) == 2
    contents = sorted(open(p).read() for p in got)
    assert contents == ["shard-a", "shard-b"]


def test_corrupt_fst_images_raise_descriptive_errors():
    from fulltextsearch_ray.fst import Fst, FstBuilder

    b = FstBuilder()
    for t in ["alpha", "beta", "gamma"]:
        b.add(t, 1)
    img = b.finish().get_bytes()
    Fst(img)  # intact loads
    with pytest.raises(ValueError, match="bad magic"):
        Fst(img[:-1])
    with pytest.raises(ValueError, match="corrupt FST image"):
        Fst(bytes([255]) * 3 + img[-5:])  # footer size exceeds image? or overlong varint
    # over-long varint in a doctored footer
    with pytest.raises(ValueError):
        Fst(b"\x80" * 40 + bytes([40 + 5]) + b"RFST")
