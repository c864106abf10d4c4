"""common.partition_apply: the one hash-partitioned group stage behind
every pair/group operator — partition tagging by hash bits, one call
per non-empty partition, per-input tables, the one size budget that
picks the in-process or the shuffle path (equal rows on both), the
probe that stops at that budget, and typed output, empty included,
across every operator built on it."""

import functools

import numpy as np
import pyarrow as pa
import pytest
import ray
import ray.data

from fulltextsearch_ray.functions import common


def test_hash_partition_buckets_by_bits():
    h = np.array([-1, -64, -65, 0, 63, 2**63 - 1, -(2**63)], dtype=np.int64)
    for P in (1, 2, 7, 64):
        part = common.hash_partition(h, P)
        assert ((part >= 0) & (part < P)).all()
        assert part.tolist() == (h.view(np.uint64) % np.uint64(P)).astype(np.int64).tolist()
        # the uint64 an int64 hash reinterprets lands in the same partition
        assert common.hash_partition(h.view(np.uint64), P).tolist() == part.tolist()
    # sum_partial carries the hash bits, whatever their signedness
    t = common.sum_partial("h", pa.array(h), "cnt", np.ones(len(h), np.int64), h.view(np.uint64))
    assert t["_hash"].to_pylist() == h.tolist()


_KV = pa.schema([("k", pa.int64()), ("v", pa.string())])
_COUNTS = pa.schema([("k", pa.int64()), ("n", pa.int64())])
# the default size budget (in-process) and -1 (shuffle for any input
# that has rows)
BUDGETS = {"in_process": common.GATHER_BYTES, "shuffle": -1}


def _block_schemas(ds) -> list:
    return [b.schema for b in ray.get(ds.materialize().to_arrow_refs())]


def test_one_call_per_nonempty_partition(ray_session, monkeypatch):
    def count_rows(t: pa.Table) -> pa.Table:
        assert t.num_rows and t.column_names == ["k", "v"]
        return pa.table({"k": [min(t["k"].to_pylist())], "n": [t.num_rows]})

    # 3, 19 and 35 share partition 3 of 16; 5 is alone in partition 5
    ds = ray.data.from_arrow(pa.table({"k": [3, 19, 5, 35], "v": ["a", "b", "c", "d"]}))
    for budget in BUDGETS.values():
        monkeypatch.setattr(common, "GATHER_BYTES", budget)
        out = common.partition_apply([(ds, "k", _KV)], 16, count_rows, _COUNTS).materialize()
        assert sorted((r["k"], r["n"]) for r in out.take_all()) == [(3, 3), (5, 1)]
        assert out.schema().base_schema == _COUNTS


@pytest.mark.parametrize("P", [1, 2, 16])
def test_empty_partitions_are_typed_and_never_call_fn(ray_session, monkeypatch, P):
    def drop_all(t: pa.Table) -> pa.Table:
        assert t.num_rows, "fn called on an empty partition"
        return _COUNTS.empty_table()

    ds = ray.data.from_arrow(pa.table({"k": [7], "v": ["x"]}))
    empty = ray.data.from_arrow(_KV.empty_table())
    # in-process: one typed block; shuffle: one per reduce task (P = 1
    # runs two, see partition_apply)
    for budget, blocks in ((common.GATHER_BYTES, 1), (-1, max(P, 2))):
        monkeypatch.setattr(common, "GATHER_BYTES", budget)
        out = common.partition_apply([(ds, "k", _KV)], P, drop_all, _COUNTS)
        assert _block_schemas(out) == [_COUNTS] * blocks
        assert out.count() == 0
        # an input without rows calls fn on nothing, and is typed too
        out = common.partition_apply([(empty, "k", _KV)], P, drop_all, _COUNTS)
        assert _block_schemas(out) == [_COUNTS]


def test_probe_stops_near_budget(ray_session, monkeypatch, tmp_path):
    """An over-budget input is streamed only until its blocks pass the
    budget, then shuffled from scratch: the probe must not run the
    whole input (``Dataset.iter_internal_ref_bundles`` has to stop
    early).  Each block's map leaves one file behind, so the files
    count the blocks the probe executed."""
    n_blocks, rows = 40, 1000
    seen = []

    def mark(b: pa.Table) -> pa.Table:
        (tmp_path / f"{b['k'][0].as_py()}").touch()
        return b

    ds = ray.data.range(n_blocks * rows, override_num_blocks=n_blocks).map_batches(
        lambda b: pa.table({"k": b["id"], "v": pa.array(["x" * 8] * len(b["id"]))}),
        batch_format="pyarrow",
        batch_size=None,
    )
    block_bytes = ds.limit(rows).materialize().size_bytes()
    ds = ds.map_batches(mark, batch_format="pyarrow", batch_size=None)
    monkeypatch.setattr(common, "GATHER_BYTES", 2 * block_bytes)
    assert common._gather(ds, common.GATHER_BYTES) is None
    probed = len(list(tmp_path.iterdir()))
    # budget + one block, plus what the streaming executor ran ahead
    assert 3 <= probed < n_blocks // 2, probed
    for f in tmp_path.iterdir():
        f.unlink()

    def count_rows(t: pa.Table) -> pa.Table:
        seen.append(t.num_rows)
        return pa.table({"k": [0], "n": [t.num_rows]})

    out = common.partition_apply([(ds, "k", _KV)], 4, count_rows, _COUNTS)
    assert sum(r["n"] for r in out.take_all()) == n_blocks * rows
    assert not seen  # the over-budget input ran in Ray tasks, not in-process
    assert len(list(tmp_path.iterdir())) >= n_blocks  # the shuffle ran it whole


def test_inputs_keep_their_own_columns(ray_session, monkeypatch):
    left = ray.data.from_arrow(pa.table({"id": [1, 2, 3], "x": ["a", "b", "c"]}))
    right = ray.data.from_arrow(pa.table({"id": pa.array([2, 3, 3], pa.int64()), "y": [0.5, 1.5, 2.5]}))
    out_schema = pa.schema([("id", pa.int64()), ("x", pa.string()), ("y_sum", pa.float64())])

    def join(ls: pa.Table, rs: pa.Table) -> pa.Table:
        assert ls.column_names == ["id", "x"] and rs.column_names == ["id", "y"]
        assert ls["x"].null_count == 0 and rs["y"].null_count == 0  # no padded rows leak
        ys = {}
        for i, y in zip(rs["id"].to_pylist(), rs["y"].to_pylist()):
            ys[i] = ys.get(i, 0.0) + y
        ids = ls["id"].to_pylist()
        return pa.table({"id": ids, "x": ls["x"], "y_sum": [ys.get(i, 0.0) for i in ids]})

    # the third budget fits the left input only: the probe gathers it
    # whole, and it feeds the shuffle from those blocks
    for budget in (*BUDGETS.values(), left.materialize().size_bytes()):
        monkeypatch.setattr(common, "GATHER_BYTES", budget)
        out = common.partition_apply(
            [
                (left, "id", pa.schema([("id", pa.int64()), ("x", pa.string())])),
                (right, "id", pa.schema([("id", pa.int64()), ("y", pa.float64())])),
            ],
            8,
            join,
            out_schema,
        )
        assert sorted(out.take_all(), key=lambda r: r["id"]) == [
            {"id": 1, "x": "a", "y_sum": 0.0},
            {"id": 2, "x": "b", "y_sum": 0.5},
            {"id": 3, "x": "c", "y_sum": 4.0},
        ]


# -- every operator built on partition_apply: typed empty partitions ----------

_DOCS = pa.schema([("doc_id", pa.int64()), ("text", pa.string())])
_TEXTS = [
    "the quick brown fox jumps over the lazy dog",
    "the quick brown fox jumps over the lazy dog",
    "pack my box with five dozen liquor jugs now",
    "sphinx of black quartz judge my vow today",
]
_PAIRS = pa.schema([("a", pa.int64()), ("b", pa.int64())])
_P = 16  # num_partitions >> rows: most partitions hold no row at all


def _docs(rows):
    return ray.data.from_arrow(
        pa.table({"doc_id": pa.array(range(1, rows + 1), pa.int64()),
                  "text": pa.array(_TEXTS[:rows], pa.string())}, schema=_DOCS)
    )


def _pairs(rows):
    return ray.data.from_arrow(pa.table({"a": [1, 2][:rows], "b": [2, 4][:rows]}, schema=_PAIRS))


def _vecs(rows):
    vecs = [[1.0, 0.0, 0.0], [0.99, 0.01, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]][:rows]
    return ray.data.from_arrow(
        pa.table({"vec_id": pa.array(range(rows), pa.int64()),
                  "embedding": pa.array(vecs, pa.list_(pa.float64()))})
    )


def _events(rows):
    ts = np.array([0, 60, 7200, 30], dtype="datetime64[s]").astype("datetime64[us]")[:rows]
    return ray.data.from_arrow(
        pa.table({"ts": pa.array(ts, pa.timestamp("us")),
                  "user_id": pa.array([1, 1, 1, 2][:rows], pa.int64()),
                  "value": pa.array([1.0, 2.0, 3.0, 4.0][:rows], pa.float64())})
    )


def _keyed(rows):
    return ray.data.from_arrow(
        pa.table({"k": pa.array(["d", "a", "c", "b"][:rows], pa.string()),
                  "text": pa.array(_TEXTS[:rows], pa.string())})
    )


def _op(name):
    from fulltextsearch_ray.functions.cleaning import top_bigrams
    from fulltextsearch_ray.functions.components import canonical_docs, connected_components
    from fulltextsearch_ray.functions.dedup import (
        embedding_neardup_pairs,
        exact_dedup,
        minhash_lsh_pairs,
        ngram_jaccard_pairs,
        simhash_neardup_pairs,
    )
    from fulltextsearch_ray.functions.sampling import pack_sequences
    from fulltextsearch_ray.functions.spans import cut_dup_spans, dup_spans
    from fulltextsearch_ray.functions.windows import session_window_agg
    from fulltextsearch_ray.pipelines.curate import curate_corpus
    from fulltextsearch_ray.sources.corpus import assign_doc_ids

    # one edge per partition: the contraction levels run, not one solve
    cc = dict(num_partitions=_P, rows_per_partition=1)
    return {
        "subtract_ids": (_docs, lambda d: common.subtract_ids(
            d, ray.data.from_arrow(pa.table({"drop_id": pa.array([2], pa.int64())})),
            num_partitions=_P)),
        "minhash_lsh_pairs": (_docs, lambda d: minhash_lsh_pairs(
            d, num_partitions=_P, threshold=0.1)),
        "simhash_neardup_pairs": (_docs, lambda d: simhash_neardup_pairs(d, num_partitions=_P)),
        "embedding_neardup_pairs": (_vecs, lambda d: embedding_neardup_pairs(
            d, num_partitions=_P, threshold=0.9)),
        "ngram_jaccard_pairs": (_docs, lambda d: ngram_jaccard_pairs(d, threshold=0.1)),
        "exact_dedup": (_docs, exact_dedup),
        "dup_spans": (_docs, lambda d: dup_spans(d, num_partitions=_P)),
        "cut_dup_spans": (_docs, lambda d: cut_dup_spans(d, num_partitions=_P)),
        "top_bigrams": (_docs, lambda d: top_bigrams(d, k=3)),
        "connected_components": (_pairs, lambda p: connected_components(p, **cc)),
        "canonical_docs": (_docs, lambda d: canonical_docs(
            d, _pairs(2) if d.count() else _pairs(0), **cc)),
        "session_window_agg": (_events, lambda e: session_window_agg(e, num_partitions=_P)),
        "pack_sequences": (_docs, lambda d: pack_sequences(d, seq_len=4, bucket_size=1)),
        "curate_corpus": (_docs, lambda d: curate_corpus(d, min_quality=0.0, num_partitions=_P)),
        "assign_doc_ids": (_keyed, lambda k: assign_doc_ids(k, ["k"], num_ranges=3)),
    }[name]


_OPS = [
    "subtract_ids", "minhash_lsh_pairs", "simhash_neardup_pairs",
    "embedding_neardup_pairs", "ngram_jaccard_pairs", "exact_dedup", "dup_spans",
    "cut_dup_spans", "top_bigrams", "connected_components", "canonical_docs",
    "session_window_agg", "pack_sequences", "curate_corpus", "assign_doc_ids",
]


@functools.lru_cache(maxsize=None)
def _run_op(name: str, path: str):
    """(sorted rows, block schemas) of op ``name`` on 4 rows and on 0
    rows, every group stage on ``path``."""
    make, op = _op(name)
    budget, common.GATHER_BYTES = common.GATHER_BYTES, BUDGETS[path]
    try:
        full = op(make(4)).materialize()
        empty = op(make(0)).materialize()
        rows = sorted(tuple(sorted(r.items())) for r in full.take_all())
        return rows, _block_schemas(full), empty.count(), _block_schemas(empty)
    finally:
        common.GATHER_BYTES = budget


@pytest.mark.parametrize(
    "name,path",
    [(n, "in_process") for n in _OPS] + [(n, "shuffle") for n in _OPS],
    ids=_OPS + [f"{n}-shuffle" for n in _OPS],
)
def test_ops_type_empty_partitions(ray_session, name, path):
    rows, schemas, n_empty, empty_schemas = _run_op(name, path)
    assert rows, name  # the tiny input exercises the real path
    # every block carries the result schema — on the shuffle path most
    # partitions hold no row, yet no schema-less or stale block leaks
    # out of an empty one
    assert all(s == schemas[0] for s in schemas), (name, schemas)
    if path == "shuffle":
        assert len(schemas) > 1, (name, schemas)
    # no input rows: still typed by the op's schema
    assert n_empty == 0
    assert empty_schemas and all(s == schemas[0] for s in empty_schemas), (name, empty_schemas)
    # both paths give the same rows
    assert rows == _run_op(name, "in_process" if path == "shuffle" else "shuffle")[0], name


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
