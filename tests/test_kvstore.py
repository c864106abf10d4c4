"""Persistent metadata stores (reference IMetadataStorage backends:
BtreePersistent / PersistentHashTable / PersistentList): model-checked
save/get/update, reopen durability, and index integration parity with
the parquet metadata path."""

import json
import os
import random

import pytest

from fulltextsearch_ray.state.kvstore import (
    METADATA_STORE_KINDS,
    PersistentBtree,
    build_store_from_index,
    open_metadata_store,
    store_path,
)


@pytest.mark.parametrize("kind", sorted(METADATA_STORE_KINDS))
def test_store_model_and_reopen(kind, tmp_path):
    rng = random.Random(99)
    path = str(tmp_path / f"store_{kind}.bin")
    model = {}
    with open_metadata_store(path, kind) as st:
        ids = list(range(2000))
        rng.shuffle(ids)
        for i in ids:
            v = f"value-{i}".encode()
            st.save(i, v)
            model[i] = v
        for i in rng.sample(ids, 400):  # updates supersede
            v = f"updated-{i}".encode()
            st.save(i, v)
            model[i] = v
        for i in rng.sample(ids, 500):
            assert st.get(i) == model[i]
        assert st.get(10**9) is None
    with open_metadata_store(path, kind) as st:  # durability
        for i in rng.sample(list(model), 500):
            assert st.get(i) == model[i]
        st.save(7, b"after-reopen")
        assert st.get(7) == b"after-reopen"


def test_btree_sparse_keys_and_splits(tmp_path):
    """Order-4 forces deep splits; 60-bit keys exercise the uint64
    range the reference's BtreePersistent<ulong,...> carries."""
    rng = random.Random(3)
    path = str(tmp_path / "bt.bin")
    model = {}
    with PersistentBtree(path, order=4) as bt:
        for _ in range(5000):
            k = rng.getrandbits(60)
            v = str(k).encode()
            bt.save(k, v)
            model[k] = v
        for k in rng.sample(list(model), 1000):
            assert bt.get(k) == model[k]
    with PersistentBtree(path) as bt:  # order comes from the header
        assert bt._order == 4
        for k in rng.sample(list(model), 500):
            assert bt.get(k) == model[k]


def test_unknown_kind_rejected(tmp_path):
    with pytest.raises(ValueError):
        open_metadata_store(str(tmp_path / "x.bin"), "skiplist")


def test_store_from_index_parity(ray_session, tmp_path):
    """meta-store materialization == the parquet metadata path, for all
    three backends, including after an incremental session."""
    import pyarrow as pa
    import ray.data

    from fulltextsearch_ray.pipelines.build import build_index
    from fulltextsearch_ray.pipelines.query import IndexSearcher

    idx = str(tmp_path / "idx")
    tbl = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(["apple banana", "banana cherry", "date"], pa.string()),
            "lang": pa.array(["en", "de", "fr"], pa.string()),
        }
    )
    build_index(
        ray.data.from_arrow(tbl), idx, text_col="text", doc_id_col="doc_id",
        meta_cols=("lang",), overwrite=True,
    )
    s = IndexSearcher(idx)
    for kind in sorted(METADATA_STORE_KINDS):
        info = build_store_from_index(idx, kind)
        assert info["n_docs"] == 3
        with open_metadata_store(store_path(idx, kind), kind) as st:
            for did in (1, 2, 3):
                assert json.loads(st.get(did)) == s.get_metadata(did), (kind, did)
            assert st.get(4) is None


def test_cli_meta_store(ray_session, tmp_path, capsys):
    import pyarrow as pa
    import ray.data

    from fulltextsearch_ray.cli import main
    from fulltextsearch_ray.pipelines.build import build_index

    idx = str(tmp_path / "idx2")
    tbl = pa.table(
        {
            "doc_id": pa.array([1, 2], pa.int64()),
            "text": pa.array(["aa bb", "cc dd"], pa.string()),
            "tag": pa.array(["x", "y"], pa.string()),
        }
    )
    build_index(
        ray.data.from_arrow(tbl), idx, text_col="text", doc_id_col="doc_id",
        meta_cols=("tag",), overwrite=True,
    )
    assert main(["meta-store", "--index", idx, "--kind", "hash"]) == 0
    capsys.readouterr()
    assert main(["metadata", "--index", idx, "--doc", "2", "--store-kind", "hash"]) == 0
    assert json.loads(capsys.readouterr().out) == {"tag": "y"}
    # missing store → clean error
    assert main(["metadata", "--index", idx, "--doc", "2", "--store-kind", "list"]) == 2
    assert os.path.exists(store_path(idx, "hash"))


def test_list_rejects_sparse_ids(tmp_path):
    from fulltextsearch_ray.state.kvstore import PersistentList

    with PersistentList(str(tmp_path / "pl.bin")) as pl:
        pl.save(5, b"ok")
        with pytest.raises(ValueError, match="dense"):
            pl.save(1 << 40, b"boom")


def test_btree_write_cache_bounded(tmp_path):
    """Bulk loads must not cache every node ever written (regression:
    the 256-entry bound was only enforced on read misses)."""
    from fulltextsearch_ray.state.kvstore import PersistentBtree

    with PersistentBtree(str(tmp_path / "b.bin"), order=4) as st:
        for k in range(20_000):
            st.save(k, b"v%d" % k)
        assert len(st._cache) <= st.CACHE_NODES
        assert st.get(19_999) == b"v19999"
        assert st.get(3) == b"v3"


def test_u64_key_validation_uniform(tmp_path):
    """Negative / oversized keys raise a clear ValueError BEFORE any
    bytes are written, on every u64-keyed backend."""
    import pytest

    from fulltextsearch_ray.state.kvstore import PersistentBtree, PersistentHashTable

    for cls, name in ((PersistentBtree, "b2.bin"), (PersistentHashTable, "h2.bin")):
        with cls(str(tmp_path / name)) as st:
            st.save(5, b"x")
            size_before = st._f.seek(0, 2)
            for bad in (-1, 1 << 64):
                with pytest.raises(ValueError, match="uint64"):
                    st.save(bad, b"y")
            assert st._f.seek(0, 2) == size_before  # nothing appended
            assert st.get(5) == b"x"


def test_btree_crash_at_any_write_boundary_preserves_committed_keys(tmp_path):
    """Simulate a process crash at EVERY write-call boundary of EVERY
    save (order 2 → frequent splits, including root growth): a reopened
    store must serve every key committed by COMPLETED saves.  The old
    split reused the live node's offset for its left half, so a crash
    between that overwrite and the parent patch lost the right half."""
    import shutil

    from fulltextsearch_ray.state.kvstore import PersistentBtree

    keys = list(range(1, 41))
    base = str(tmp_path / "base.bin")
    PersistentBtree(base, order=2).close()

    for k_idx, key in enumerate(keys):
        # extend the base store with this key AFTER the crash sweep so
        # `base` always holds exactly the committed prefix
        for fail_after in range(0, 64):
            work = str(tmp_path / "work.bin")
            shutil.copyfile(base, work)
            st = PersistentBtree(work, order=2)
            orig_append, orig_write_at = st._append, st._write_at
            calls = {"n": 0}

            def gate():
                if calls["n"] >= fail_after:
                    raise RuntimeError("injected crash")
                calls["n"] += 1

            st._append = lambda payload: (gate(), orig_append(payload))[1]
            st._write_at = lambda off, p: (gate(), orig_write_at(off, p))[1]
            crashed = False
            try:
                st.save(key, b"v%d" % key)
            except RuntimeError:
                crashed = True
            st._f.flush()
            st._f.close()
            re = PersistentBtree(work, order=2)
            for prev in keys[:k_idx]:
                assert re.get(prev) == b"v%d" % prev, (key, fail_after, prev)
            if not crashed:
                got = re.get(key)
                assert got == b"v%d" % key
            re.close()
            if not crashed:
                break
        else:
            raise AssertionError("save never completed within 64 write calls")
        st2 = PersistentBtree(base, order=2)
        st2.save(key, b"v%d" % key)
        st2.close()


def test_store_build_atomic_and_staleness_stamp(ray_session, tmp_path):
    """build_store_from_index must (a) never destroy the previous good
    store on a crashed rebuild (tmp+replace), and (b) stamp the segment
    coverage so a store predating an incremental session is detected
    instead of silently serving None for new docs."""
    import json

    import pyarrow as pa
    import ray.data

    from fulltextsearch_ray.pipelines.build import build_index
    from fulltextsearch_ray.state import kvstore
    from fulltextsearch_ray.state.kvstore import store_is_stale

    idx = str(tmp_path / "idx3")
    tbl = pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "text": pa.array(["aa bb", "cc dd"], pa.string()),
        "tag": pa.array(["x", "y"], pa.string()),
    })
    build_index(ray.data.from_arrow(tbl), idx, text_col="text",
                doc_id_col="doc_id", meta_cols=("tag",),
                overwrite=True)
    info = build_store_from_index(idx, "btree")
    path = info["path"]
    assert store_is_stale(idx, "btree") is False
    good_bytes = open(path, "rb").read()

    # crashed rebuild: the good store must survive untouched
    real_open = kvstore.open_metadata_store

    def crashing_open(p, kind, durable=False):
        st = real_open(p, kind, durable=durable)
        real_save = st.save
        calls = {"n": 0}

        def save(k, v):
            if calls["n"] >= 1:
                raise RuntimeError("injected crash")
            calls["n"] += 1
            return real_save(k, v)

        st.save = save
        return st

    import pytest as _pytest

    orig = kvstore.open_metadata_store
    kvstore.open_metadata_store = crashing_open
    try:
        with _pytest.raises(RuntimeError):
            build_store_from_index(idx, "btree")
    finally:
        kvstore.open_metadata_store = orig
    assert open(path, "rb").read() == good_bytes  # old store intact
    assert store_is_stale(idx, "btree") is False  # old stamp intact

    # incremental session → stamp mismatch → stale
    tbl2 = pa.table({
        "doc_id": pa.array([10, 11], pa.int64()),
        "text": pa.array(["ee ff", "gg hh"], pa.string()),
        "tag": pa.array(["z", "w"], pa.string()),
    })
    build_index(ray.data.from_arrow(tbl2), idx, text_col="text",
                doc_id_col="doc_id", meta_cols=("tag",))
    assert store_is_stale(idx, "btree") is True
    # rebuild clears it and covers the new docs
    build_store_from_index(idx, "btree")
    assert store_is_stale(idx, "btree") is False
    with open_metadata_store(store_path(idx, "btree"), "btree") as st:
        assert json.loads(st.get(10))["tag"] == "z"
    # legacy store (no stamp): unknowable, not an error
    import os
    os.remove(store_path(idx, "btree") + ".json")
    assert store_is_stale(idx, "btree") is None


# -- crash ordering: descriptive corruption errors ---------------------------


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


def test_store_from_index_keeps_mixed_meta_columns(ray_session, tmp_path):
    """Sessions built with different ``meta_cols`` compact into one
    docs_meta dir of mixed schemas; the store reads it per file, so doc
    2 keeps ``beta`` (a directory read took the first file's schema and
    stored it as ``{"alpha": null}``)."""
    import pyarrow as pa
    import ray.data

    from fulltextsearch_ray.pipelines.build import build_index, compact_index
    from fulltextsearch_ray.pipelines.query import IndexSearcher

    idx = str(tmp_path / "idx")
    for doc_id, text, col, val in [(1, "apple pie", "alpha", "A1"), (2, "banana split", "beta", "B2")]:
        build_index(
            ray.data.from_arrow(pa.table({
                "doc_id": pa.array([doc_id], pa.int64()),
                "text": pa.array([text], pa.string()),
                col: pa.array([val], pa.string()),
            })),
            idx, text_col="text", doc_id_col="doc_id", meta_cols=(col,),
        )
    compact_index(idx)
    want = IndexSearcher(idx).get_metadata_many([1, 2])
    assert want == {1: {"alpha": "A1"}, 2: {"beta": "B2"}}
    for kind in sorted(METADATA_STORE_KINDS):
        build_store_from_index(idx, kind)
        with open_metadata_store(store_path(idx, kind), kind) as st:
            assert {d: json.loads(st.get(d)) for d in (1, 2)} == want, kind
