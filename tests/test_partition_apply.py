"""common.partition_apply: the one hash-partitioned group stage behind
every pair/group operator — partition tagging by hash bits, one call
per non-empty partition, per-input tables, and typed blocks for empty
partitions across every operator built on it."""

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


def _block_schemas(ds) -> list:
    return [b.schema for b in ray.get(ds.materialize().to_arrow_refs())]
_COUNTS = pa.schema([("k", pa.int64()), ("n", pa.int64())])


def test_one_call_per_nonempty_partition(ray_session):
    def count_rows(t: pa.Table) -> pa.Table:
        assert t.num_rows and t.column_names == ["k", "v"]
        return pa.table({"k": [min(t["k"].to_pylist())], "n": [t.num_rows]})

    # 3, 19 and 35 share partition 3 of 16; 5 is alone in partition 5
    ds = ray.data.from_arrow(pa.table({"k": [3, 19, 5, 35], "v": ["a", "b", "c", "d"]}))
    out = common.partition_apply([(ds, "k", _KV)], 16, count_rows, _COUNTS).materialize()
    assert sorted((r["k"], r["n"]) for r in out.take_all()) == [(3, 3), (5, 1)]
    assert out.schema().base_schema == _COUNTS


@pytest.mark.parametrize("P", [1, 2, 16])
def test_empty_partitions_are_typed_and_never_call_fn(ray_session, P):
    def drop_all(t: pa.Table) -> pa.Table:
        assert t.num_rows, "fn called on an empty partition"
        return _COUNTS.empty_table()

    ds = ray.data.from_arrow(pa.table({"k": [7], "v": ["x"]}))
    out = common.partition_apply([(ds, "k", _KV)], P, drop_all, _COUNTS)
    # one typed block per reduce task (P = 1 runs two, see partition_apply)
    assert _block_schemas(out) == [_COUNTS] * max(P, 2)
    assert out.count() == 0
    # an input without rows reaches no task at all: nothing to call fn on
    empty = ray.data.from_arrow(_KV.empty_table())
    assert common.partition_apply([(empty, "k", _KV)], P, drop_all, _COUNTS).count() == 0


def test_inputs_keep_their_own_columns(ray_session):
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
        minhash_lsh_pairs,
        ngram_jaccard_pairs,
        simhash_neardup_pairs,
    )
    from fulltextsearch_ray.functions.sampling import pack_sequences
    from fulltextsearch_ray.functions.spans import cut_dup_spans, dup_spans
    from fulltextsearch_ray.functions.windows import session_window_agg
    from fulltextsearch_ray.pipelines.curate import curate_corpus
    from fulltextsearch_ray.sources.corpus import assign_doc_ids

    # n_rows far past the gather budget forces the distributed pair path
    big = 10**9
    cc = dict(num_partitions=_P, task_budget=0, rows_per_partition=1)
    return {
        "subtract_ids": (_docs, lambda d: common.subtract_ids(
            d, ray.data.from_arrow(pa.table({"drop_id": pa.array([2], pa.int64())})),
            num_partitions=_P)),
        "minhash_lsh_pairs": (_docs, lambda d: minhash_lsh_pairs(
            d, num_partitions=_P, n_rows=big, threshold=0.1)),
        "simhash_neardup_pairs": (_docs, lambda d: simhash_neardup_pairs(
            d, num_partitions=_P, n_rows=big)),
        "embedding_neardup_pairs": (_vecs, lambda d: embedding_neardup_pairs(
            d, num_partitions=_P, n_rows=big, threshold=0.9)),
        "ngram_jaccard_pairs": (_docs, lambda d: ngram_jaccard_pairs(d, threshold=0.1)),
        "dup_spans": (_docs, lambda d: dup_spans(d, broadcast_budget=-1, num_partitions=_P)),
        "cut_dup_spans": (_docs, lambda d: cut_dup_spans(
            d, broadcast_budget=-1, num_partitions=_P)),
        "top_bigrams": (_docs, lambda d: top_bigrams(d, k=3)),
        "connected_components": (_pairs, lambda p: connected_components(p, **cc)),
        "canonical_docs": (_docs, lambda d: canonical_docs(
            d, _pairs(2) if d.count() else _pairs(0), broadcast_budget=-1, **cc)),
        "session_window_agg": (_events, lambda e: session_window_agg(e, num_partitions=_P)),
        "pack_sequences": (_docs, lambda d: pack_sequences(d, seq_len=4, bucket_size=1)),
        "curate_corpus": (_docs, lambda d: curate_corpus(d, min_quality=0.0, num_partitions=_P)),
        "assign_doc_ids": (_keyed, lambda k: assign_doc_ids(k, ["k"], num_ranges=3)),
    }[name]


@pytest.mark.parametrize(
    "name",
    [
        "subtract_ids", "minhash_lsh_pairs", "simhash_neardup_pairs",
        "embedding_neardup_pairs", "ngram_jaccard_pairs", "dup_spans", "cut_dup_spans",
        "top_bigrams", "connected_components", "canonical_docs", "session_window_agg",
        "pack_sequences", "curate_corpus", "assign_doc_ids",
    ],
)
def test_ops_type_empty_partitions(ray_session, name):
    make, op = _op(name)
    full = op(make(4)).materialize()
    assert full.count() > 0, name  # the tiny input exercises the real path
    # most partitions hold no row, yet every block carries the result
    # schema: no schema-less or stale block leaks out of an empty one
    schemas = _block_schemas(full)
    assert len(schemas) > 1 and all(s == schemas[0] for s in schemas), (name, schemas)
    empty = op(make(0)).materialize()
    assert empty.count() == 0
    assert all(not s.names or s == schemas[0] for s in _block_schemas(empty)), name
