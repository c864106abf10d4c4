"""Similarity-search operator tests: brute-force exactness, LSH/IVF
recall against the exact baseline, determinism."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from fulltextsearch_ray.functions.similarity import (
    brute_force_topk,
    ivf_topk,
    lsh_bucketed_topk,
)


@pytest.fixture(scope="module")
def vectors(ray_session):
    rng = np.random.default_rng(3)
    n, dim = 400, 32
    # clustered vectors so ANN variants have structure to find
    centers = rng.standard_normal((8, dim)) * 3
    mat = centers[np.arange(n) % 8] + rng.standard_normal((n, dim))
    tbl = pa.table(
        {
            "vec_id": pa.array(range(n), pa.int64()),
            "embedding": pa.array([r.astype(np.float32).tolist() for r in mat], pa.list_(pa.float32())),
        }
    )
    q_ids = np.arange(3, dtype=np.int64)
    q_mat = mat[:3].astype(np.float64)
    return ray.data.from_arrow(tbl), q_ids, q_mat, mat


def _exact_oracle(mat, q_mat, q_ids, k=10):
    m = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    q = q_mat / np.linalg.norm(q_mat, axis=1, keepdims=True)
    sims = q @ m.T
    out = {}
    for i, qid in enumerate(q_ids):
        row = sims[i].copy()
        row[qid] = -np.inf  # exclude self
        order = np.lexsort((np.arange(len(row)), -row))[:k]
        out[int(qid)] = list(order)
    return out


def test_brute_force_is_exact(vectors):
    ds, q_ids, q_mat, mat = vectors
    got = brute_force_topk(ds, q_ids, q_mat, k=10)
    oracle = _exact_oracle(mat, q_mat, q_ids)
    for qid in q_ids:
        mine = [n for q, n in zip(got["query_id"].to_pylist(), got["neighbor_id"].to_pylist()) if q == qid]
        assert mine == oracle[int(qid)]


def test_brute_force_returns_its_cpus(vectors):
    """The scorer holds no CPU once the call returns.  As an actor pool
    its idle actors kept their CPUs until the garbage collector freed
    the pool's executor, and the next stage waited for them."""
    import gc
    import time

    def cpus_reach(target: float) -> float:
        deadline = time.monotonic() + 30
        while (free := ray.available_resources().get("CPU", 0)) < target and time.monotonic() < deadline:
            time.sleep(0.2)
        return free

    ds, q_ids, q_mat, _ = vectors
    gc.collect()  # what earlier tests left to the collector goes first
    gc.disable()
    try:
        before = cpus_reach(ray.cluster_resources()["CPU"])
        brute_force_topk(ds, q_ids, q_mat, k=5)
        assert cpus_reach(before) >= before
    finally:
        gc.enable()


def test_ivf_recall(vectors):
    ds, q_ids, q_mat, mat = vectors
    got = ivf_topk(ds, q_ids, q_mat, k=10, n_clusters=8, nprobe=3)
    oracle = _exact_oracle(mat, q_mat, q_ids)
    hits = total = 0
    for qid in q_ids:
        mine = {n for q, n in zip(got["query_id"].to_pylist(), got["neighbor_id"].to_pylist()) if q == qid}
        hits += len(mine & set(oracle[int(qid)]))
        total += 10
    assert hits / total >= 0.7  # approximate, but must find most of top-10


def test_lsh_returns_ranked_rows(vectors):
    ds, q_ids, q_mat, _ = vectors
    got = lsh_bucketed_topk(ds, q_ids, q_mat, k=10, bits=4)
    assert got.num_rows > 0
    assert set(got.column_names) == {"query_id", "rank", "neighbor_id", "cosine"}


def test_ivf_deterministic(vectors):
    ds, q_ids, q_mat, _ = vectors
    a = ivf_topk(ds, q_ids, q_mat, k=5, n_clusters=8, nprobe=2)
    b = ivf_topk(ds, q_ids, q_mat, k=5, n_clusters=8, nprobe=2)
    assert a.equals(b)


def test_ivf_hot_cluster_is_batch_bounded(ray_session):
    """All vectors in ONE cluster (degenerate hot cluster): the probe
    path must still be exact vs brute force, and — the scale shape —
    every per-batch emit must be ≤ k rows per query regardless of
    cluster size (no per-cluster task ever holds the whole cluster)."""
    from fulltextsearch_ray.functions.similarity import (
        _score_allowed,
        _normalize,
    )

    rng = np.random.default_rng(5)
    n, dim = 600, 16
    base = rng.standard_normal(dim)
    mat = base[None, :] * 5 + rng.standard_normal((n, dim)) * 0.1  # one tight cluster
    tbl = pa.table(
        {
            "vec_id": pa.array(range(n), pa.int64()),
            "embedding": pa.array([r.tolist() for r in mat], pa.list_(pa.float64())),
        }
    )
    ds = ray.data.from_arrow(tbl)
    q_ids = np.arange(2, dtype=np.int64)
    q_mat = mat[:2]
    k = 7
    got = ivf_topk(ds, q_ids, q_mat, k=k, n_clusters=1, nprobe=1, iters=2)
    oracle = _exact_oracle(mat, q_mat, q_ids, k=k)
    for qid in q_ids:
        mine = [x for q, x in zip(got["query_id"].to_pylist(), got["neighbor_id"].to_pylist()) if q == qid]
        # one cluster holds the WHOLE dataset and nprobe=1 → exact
        assert mine == oracle[int(qid)]
    # batch-bounded emit: a 600-vector "cluster" scored as a 64-row
    # batch emits ≤ k rows per query, never the cluster
    q = {"ids": q_ids, "mat": _normalize(q_mat)}
    batch_ids = np.arange(100, 164, dtype=np.int64)
    batch_mat = _normalize(mat[100:164])
    allowed = np.ones((len(q_ids), 64), dtype=bool)
    emitted = _score_allowed(q, batch_ids, batch_mat, allowed, k)
    assert emitted.num_rows <= k * len(q_ids)


def test_ann_index_build_query_roundtrip(ray_session, tmp_path):
    """Persisted IVF artifact: query_ann_index over the written
    cluster partitions must equal the from-scratch ivf_topk, and the
    probed read must touch only the probed cluster files."""
    from fulltextsearch_ray.functions.similarity import (
        _cluster_files,
        build_ann_index,
        ivf_topk,
        query_ann_index,
        read_ann_assignments,
    )

    rng = np.random.default_rng(9)
    n, dim = 300, 12
    centers = rng.standard_normal((4, dim)) * 4
    mat = centers[np.arange(n) % 4] + rng.standard_normal((n, dim)) * 0.2
    tbl = pa.table(
        {
            "vec_id": pa.array(range(n), pa.int64()),
            "embedding": pa.array([r.tolist() for r in mat], pa.list_(pa.float64())),
        }
    )
    ds = ray.data.from_arrow(tbl)
    idx = str(tmp_path / "annidx")
    meta = build_ann_index(ds, idx, n_clusters=4, iters=2)
    assert meta["n_clusters"] == 4
    assigns = read_ann_assignments(idx).take_all()
    assert len(assigns) == n
    q_ids = np.arange(3, dtype=np.int64)
    q_mat = mat[:3]
    served = query_ann_index(idx, q_ids, q_mat, k=6, nprobe=2)
    scratch = ivf_topk(ds, q_ids, q_mat, k=6, n_clusters=4, nprobe=2, iters=2)
    assert served.equals(scratch)
    # file-level pruning: probing 1 cluster reads strictly fewer files
    all_files = _cluster_files(idx, range(4))
    one = _cluster_files(idx, [0])
    assert len(one) < len(all_files)


def test_project_embeddings_matches_numpy(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data

    from fulltextsearch_ray.functions.common import round6
    from fulltextsearch_ray.functions.similarity import (
        lsh_hyperplanes,
        project_embeddings,
    )

    rng = np.random.default_rng(2)
    vecs = rng.standard_normal((20, 8)).astype(np.float32)
    ds = ray.data.from_arrow(
        pa.table({"vec_id": pa.array(range(20), pa.int64()),
                  "embedding": pa.array([list(map(float, v)) for v in vecs])})
    )
    rows = project_embeddings(ds, out_dim=4, seed=7).take_all()
    got = {}
    for r in rows:
        got.setdefault(r["vec_id"], {})[r["p"]] = r["val"]
    planes = lsh_hyperplanes(8, bits=4, seed=7)
    want = round6(vecs.astype(np.float64) @ planes.T)
    for i in range(20):
        assert [got[i][p] for p in range(4)] == list(want[i])


def test_batch_local_topk_tie_break_lowest_ids():
    """Batch-local top-k must break boundary ties as (cosine desc,
    neighbor asc) — the _final_topk / SQL-oracle order — so the kept
    candidate set never depends on batch composition (duplicate
    vectors tie at cosine 1.0 in dedup-style corpora)."""
    import numpy as np

    from fulltextsearch_ray.functions.similarity import _score_allowed

    ids = np.array([109, 102, 100, 107, 101, 104, 106, 103, 108, 105], dtype=np.int64)
    mat = np.tile(np.array([[1.0, 0.0]]), (len(ids), 1))
    q = {"ids": np.array([999], dtype=np.int64), "mat": np.array([[1.0, 0.0]])}
    allowed = np.ones((1, len(ids)), dtype=bool)
    t = _score_allowed(q, ids, mat, allowed, 3)
    assert sorted(t["neighbor_id"].to_pylist()) == [100, 101, 102]


def test_driver_candidate_rows_independent_of_batch_count(ray_session):
    """The round-3 scale-killer fix: the candidate merge's driver-held
    table must be O(fanin · k · n_queries) — INDEPENDENT of how many
    batches the scoring pass produced.  Score the same vectors split
    into 1 block vs 64 blocks; the gathered candidate rows must be
    identical-bounded (not 64× bigger), and the results must match."""
    from fulltextsearch_ray.functions.similarity import _REDUCE_FANIN

    rng = np.random.default_rng(11)
    n, dim, k = 2048, 8, 5
    mat = rng.standard_normal((n, dim))
    tbl = pa.table(
        {
            "vec_id": pa.array(range(n), pa.int64()),
            "embedding": pa.array([r.tolist() for r in mat], pa.list_(pa.float64())),
        }
    )
    q_ids = np.arange(4, dtype=np.int64)
    q_mat = mat[:4]
    bound = _REDUCE_FANIN * k * len(q_ids)

    stats_one, stats_many = {}, {}
    one = brute_force_topk(
        ray.data.from_arrow(tbl), q_ids, q_mat, k=k, stats=stats_one
    )
    # 64 blocks → the scorer emits ≥ 64 batches of candidates; with the
    # old driver gather this would be 64·k·q rows on the driver
    many_ds = ray.data.from_arrow(tbl).repartition(64)
    many = brute_force_topk(many_ds, q_ids, q_mat, k=k, stats=stats_many)
    assert one.equals(many)
    assert stats_one["driver_candidate_rows"] <= bound
    assert stats_many["driver_candidate_rows"] <= bound


def test_lsh_multiprobe_improves_recall(vectors):
    """Multiprobe (Hamming-1 bucket neighbors) must dominate the
    exact-bucket probe: every exact-bucket candidate stays allowed, so
    recall vs brute force is monotonically ≥, and on this clustered
    fixture strictly more candidate mass is found."""
    ds, q_ids, q_mat, mat = vectors
    oracle = _exact_oracle(mat, q_mat, q_ids)

    def recall(tbl):
        hits = total = 0
        for qid in q_ids:
            mine = {
                n
                for q, n in zip(tbl["query_id"].to_pylist(), tbl["neighbor_id"].to_pylist())
                if q == qid
            }
            hits += len(mine & set(oracle[int(qid)]))
            total += 10
        return hits / total

    exact_bucket = lsh_bucketed_topk(ds, q_ids, q_mat, k=10, bits=6)
    multi = lsh_bucketed_topk(ds, q_ids, q_mat, k=10, bits=6, multiprobe=1)
    assert recall(multi) >= recall(exact_bucket)
    # hamming-1 probing widens the candidate set → at least as many rows
    assert multi.num_rows >= exact_bucket.num_rows


def test_popcount64_matches_python():
    from fulltextsearch_ray.functions.similarity import popcount64

    rng = np.random.default_rng(3)
    xs = rng.integers(0, 2**63, size=1000, dtype=np.int64).astype(np.uint64)
    xs[:3] = [0, 1, 2**64 - 1]
    got = popcount64(xs)
    want = np.array([bin(int(x)).count("1") for x in xs], dtype=np.int64)
    assert (got == want).all()


def test_tree_reduce_multilevel_exact(ray_session, monkeypatch):
    """Force the ref-tree reduce through MULTIPLE levels (fanin=2,
    tiny level-1 batches): results must equal the single-gather path
    and the driver bound must hold at the small fanin."""
    import fulltextsearch_ray.functions.similarity as sim

    rng = np.random.default_rng(7)
    n, dim, k = 1024, 8, 4
    mat = rng.standard_normal((n, dim))
    tbl = pa.table(
        {
            "vec_id": pa.array(range(n), pa.int64()),
            "embedding": pa.array([r.tolist() for r in mat], pa.list_(pa.float64())),
        }
    )
    q_ids = np.arange(3, dtype=np.int64)
    q_mat = mat[:3]

    baseline = brute_force_topk(ray.data.from_arrow(tbl), q_ids, q_mat, k=k)

    monkeypatch.setattr(sim, "_REDUCE_FANIN", 2)
    monkeypatch.setattr(sim, "_REDUCE_BATCH_ROWS", 8)  # many level-1 refs
    stats = {}
    treed = brute_force_topk(
        ray.data.from_arrow(tbl).repartition(32), q_ids, q_mat, k=k, stats=stats
    )
    assert treed.equals(baseline)
    assert stats["driver_candidate_rows"] <= 2 * k * len(q_ids)


def test_ivf_centroids_partition_invariant(ray_session):
    """The k-means partial-sum reduce must be exact for any block
    structure: 1 block vs 64 blocks yield identical quantized
    centroids (round12 absorbs float summation-order differences —
    the same tolerance the SQL oracle relies on)."""
    from fulltextsearch_ray.functions.similarity import ivf_centroids

    rng = np.random.default_rng(5)
    n, dim = 3000, 16
    mat = rng.standard_normal((n, dim))
    tbl = pa.table(
        {
            "vec_id": pa.array(range(n), pa.int64()),
            "embedding": pa.array([r.tolist() for r in mat], pa.list_(pa.float64())),
        }
    )
    one = ivf_centroids(ray.data.from_arrow(tbl), n_clusters=8, iters=2)
    many = ivf_centroids(
        ray.data.from_arrow(tbl).repartition(64), n_clusters=8, iters=2
    )
    assert one.shape == many.shape == (8, dim)
    assert (one == many).all()


def test_ivf_centroids_multilevel_tree(ray_session, monkeypatch):
    """Force the generic partial-sum/seed reduce through multiple tree
    levels (fanin=2, tiny combine batches): centroids must equal the
    wide-fanin path — i.e. the combiner really is associative and the
    driver gather stays ≤ fanin blocks even when hundreds of partial
    blocks exist."""
    import fulltextsearch_ray.functions.similarity as sim

    rng = np.random.default_rng(9)
    n, dim = 1500, 8
    mat = rng.standard_normal((n, dim))
    tbl = pa.table(
        {
            "vec_id": pa.array(range(n), pa.int64()),
            "embedding": pa.array([r.tolist() for r in mat], pa.list_(pa.float64())),
        }
    )
    ds = ray.data.from_arrow(tbl).repartition(48)
    baseline = sim.ivf_centroids(ds, n_clusters=6, iters=2)
    monkeypatch.setattr(sim, "_REDUCE_FANIN", 2)
    monkeypatch.setattr(sim, "_VECTOR_REDUCE_BATCH_ROWS", 8)
    treed = sim.ivf_centroids(ds, n_clusters=6, iters=2)
    assert (baseline == treed).all()


def test_tree_reduce_tables_matches_direct_combine(ray_session, monkeypatch):
    """_tree_reduce_tables(parts, combine) == combine(concat(parts))
    for an associative per-key sum, across a forced multi-level tree."""
    import fulltextsearch_ray.functions.similarity as sim

    def combine(batch: pa.Table) -> pa.Table:
        key = np.asarray(batch["key"].to_numpy(zero_copy_only=False), dtype=np.int64)
        val = np.asarray(batch["val"].to_numpy(zero_copy_only=False), dtype=np.int64)
        k = int(key.max()) + 1 if len(key) else 0
        sums = np.zeros(k, dtype=np.int64)
        np.add.at(sums, key, val)
        return pa.table({"key": pa.array(np.arange(k)), "val": pa.array(sums)})

    rng = np.random.default_rng(2)
    key = rng.integers(0, 7, size=5000).astype(np.int64)
    val = rng.integers(0, 100, size=5000).astype(np.int64)
    tbl = pa.table({"key": pa.array(key), "val": pa.array(val)})
    want = combine(tbl)

    monkeypatch.setattr(sim, "_REDUCE_FANIN", 2)
    got = sim._tree_reduce_tables(
        ray.data.from_arrow(tbl).repartition(32), combine, batch_rows=16
    )
    assert got.equals(want)

    # all-empty partials -> None
    empty = pa.table({"key": pa.array([], pa.int64()), "val": pa.array([], pa.int64())})
    assert sim._tree_reduce_tables(ray.data.from_arrow(empty), combine) is None


def test_sampled_ivf_centroids_deterministic_and_useful(vectors):
    """Sample-trained quantizer (FAISS shape): deterministic for any
    block structure, recall of ivf_topk(train_mod=...) stays usable on
    the clustered fixture, and a degenerate sample falls back to exact
    full-data training."""
    from fulltextsearch_ray.functions.similarity import (
        ivf_centroids,
        ivf_topk,
        sampled_ivf_centroids,
    )

    ds, q_ids, q_mat, mat = vectors
    one = sampled_ivf_centroids(ds, n_clusters=8, iters=2, train_mod=3)
    many = sampled_ivf_centroids(
        ds.repartition(16), n_clusters=8, iters=2, train_mod=3
    )
    assert (one == many).all()
    assert one.shape == (8, mat.shape[1])

    got = ivf_topk(ds, q_ids, q_mat, k=10, n_clusters=8, nprobe=4, train_mod=3)
    oracle = _exact_oracle(mat, q_mat, q_ids)
    hits = total = 0
    for qid in q_ids:
        mine = {
            n
            for q, n in zip(got["query_id"].to_pylist(), got["neighbor_id"].to_pylist())
            if q == qid
        }
        hits += len(mine & set(oracle[int(qid)]))
        total += 10
    assert hits / total >= 0.5  # approximate, but far above random

    # train_mod so sparse the sample < n_clusters -> exact fallback
    sparse = sampled_ivf_centroids(ds, n_clusters=8, iters=2, train_mod=10_000_000)
    exact = ivf_centroids(ds, n_clusters=8, iters=2)
    assert (sparse == exact).all()


def test_sampled_ivf_budget_guard(vectors):
    from fulltextsearch_ray.functions.similarity import sampled_ivf_centroids

    ds, *_ = vectors
    with pytest.raises(ValueError, match="train_budget"):
        sampled_ivf_centroids(ds, n_clusters=4, iters=1, train_mod=1, train_budget=10)


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


def test_similarity_guards(ray_session, tmp_path):
    """Element-level embedding nulls fail loud; a second ANN build
    refuses to merge into a live index; >64 LSH planes rejected;
    exclude_self is optional for external query ids."""
    from fulltextsearch_ray.functions.similarity import (
        brute_force_topk,
        build_ann_index,
        lsh_bucket,
        lsh_hyperplanes,
        query_ann_index,
    )

    # element-level null inside a list row (row-level null_count == 0)
    vecs = pa.array([[0.1, None, 0.2], [0.3, 0.4, 0.5]], pa.list_(pa.float32()))
    ds_bad = ray.data.from_arrow(
        pa.table({"vec_id": pa.array([1, 2], pa.int64()), "embedding": vecs})
    )
    with pytest.raises(Exception, match="null element"):
        brute_force_topk(ds_bad, np.array([1]), np.array([[1.0, 0.0, 0.0]]), k=2)

    # >64 hyperplanes would silently wrap to weight 0
    with pytest.raises(ValueError, match="64 hyperplanes"):
        lsh_bucket(np.ones((2, 8)), lsh_hyperplanes(8, bits=65))

    rng = np.random.default_rng(5)
    mat = rng.standard_normal((30, 8)).astype(np.float64)
    ds = ray.data.from_arrow(
        pa.table({"vec_id": pa.array(range(30), pa.int64()),
                  "embedding": pa.array([r.tolist() for r in mat], pa.list_(pa.float32()))})
    )
    idx = str(tmp_path / "ann")
    build_ann_index(ds, idx, n_clusters=4, iters=2)
    with pytest.raises(ValueError, match="already holds an index"):
        build_ann_index(ds, idx, n_clusters=4, iters=2, overwrite=False)
    build_ann_index(ds, idx, n_clusters=4, iters=2, overwrite=True)  # fine

    # external queries whose ids collide with corpus vec_ids: with
    # exclude_self=False the colliding corpus vector stays eligible
    q = mat[7:8] / np.linalg.norm(mat[7])
    with_excl = query_ann_index(idx, np.array([7]), q, k=1, nprobe=4)
    without = query_ann_index(idx, np.array([7]), q, k=1, nprobe=4, exclude_self=False)
    assert without["neighbor_id"].to_pylist() == [7]  # its own vector
    assert with_excl["neighbor_id"].to_pylist() != [7]


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
