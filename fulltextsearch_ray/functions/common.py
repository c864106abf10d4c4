"""Shared helpers for the training-data operators.

``round6`` exists because DuckDB ``round`` is half-away-from-zero while
numpy rounds half-to-even; both engines use the identical
``floor(x*1e6 + 0.5)/1e6`` so float outputs value-hash equal in the
driver's oracle comparison.
"""

from __future__ import annotations

import hashlib

import numpy as np

ROUND6_SQL = "floor(({expr}) * 1000000 + 0.5) / 1000000"


def round6(x: np.ndarray | float):
    return np.floor(np.multiply(x, 1e6) + 0.5) / 1e6


def md5_hex(s: str) -> str:
    return hashlib.md5(s.encode("utf-8")).hexdigest()


def md5_u64(s: str) -> int:
    """First 64 bits of md5 as unsigned int — matches DuckDB
    ``('0x' || substr(md5(s), 1, 16))::UBIGINT``."""
    return int(hashlib.md5(s.encode("utf-8")).hexdigest()[:16], 16)


_DUCK = None


def md5_u64_batch(strings) -> np.ndarray:
    """Vectorized md5→uint64 over an Arrow string array.

    Uses an in-process DuckDB connection (C++ md5, no per-string Python
    call) — bit-identical to :func:`md5_u64` and to the SQL oracles'
    ``('0x' || substr(md5(s), 1, 16))::UBIGINT``.  The connection is
    created once per worker process (map_batches actor or task).
    """
    import pyarrow as pa

    tbl = pa.table({"s": strings})
    out = _duck().execute(
        "SELECT ('0x' || substr(md5(s), 1, 16))::UBIGINT AS h FROM tbl"
    ).arrow()
    return np.asarray(out["h"].to_numpy(zero_copy_only=False), dtype=np.uint64)


def _duck():
    """Per-process DuckDB connection pinned to ONE thread — stage
    parallelism comes from Ray tasks; an all-cores DuckDB pool inside
    every worker would oversubscribe the box."""
    global _DUCK
    if _DUCK is None:
        import duckdb

        _DUCK = duckdb.connect()
        _DUCK.execute("SET threads TO 1")
    return _DUCK


def sorted_runs(keys: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """(starts, counts) of equal-key runs in a SORTED key array — the
    shared run-detection step of every bucketed pair stage."""
    n = len(keys)
    change = np.empty(n, dtype=bool)
    if n:
        change[0] = True
        change[1:] = keys[1:] != keys[:-1]  # assignment casts: works for object keys too
    starts = np.flatnonzero(change)
    return starts, np.diff(np.r_[starts, n])


def iter_capped_runs(keys: np.ndarray, cap: int, op_name: str):
    """Yield (start, size) for equal-key runs of size 2..cap in a
    sorted key array; larger runs are skipped and summarized in ONE
    log line per call (a capped pair stage never truncates silently,
    but a skewed corpus at scale must not flood the logs with a line
    per bucket either)."""
    starts, counts = sorted_runs(keys)
    yield from iter_capped_precomputed(starts, counts, cap, op_name)


def iter_capped_precomputed(starts, counts, cap: int, op_name: str):
    """:func:`iter_capped_runs` over PRE-computed run (start, size)
    arrays — for composite sort keys whose change array the caller
    already built (e.g. minhash's (bucket, band-signature) runs).
    THE single implementation of the run-cap / skip-count / summary-log
    contract; pair stages must not inline it."""
    n_skip = docs_skip = biggest = 0
    for s, g in zip(starts, counts):
        if g < 2:
            continue
        if g > cap:
            n_skip += 1
            docs_skip += int(g)
            biggest = max(biggest, int(g))
            continue
        yield int(s), int(g)
    if n_skip:
        print(
            f"{op_name}: skipped {n_skip} oversized buckets"
            f" (> cap {cap}; {docs_skip} docs total, largest {biggest})"
        )


def subtract_ids(
    ds,
    drop_ids,
    *,
    id_col: str = "doc_id",
    drop_col: str = "drop_id",
    num_partitions: int | None = None,
):
    """Distributed anti-join: ``ds`` minus rows whose ``id_col`` appears
    in the single-column ``drop_ids`` dataset.  Tagged union, null-
    padded to ``ds``'s schema, hash-partitioned on ``id % P``; each
    partition task drops its matches with one ``np.isin`` — neither
    side touches the driver.  Shared by the curation pipeline and the
    dedup-apply path."""
    import pyarrow as pa
    import pyarrow.compute as pc

    P = num_partitions or default_partitions()
    sch = ds.schema(fetch_if_missing=True)
    if sch is None:  # fully-empty data side: nothing to subtract from
        return ds
    schema = sch.base_schema
    names = schema.names

    tagged_schema = pa.schema(
        list(schema) + [pa.field("_drop", pa.int64()), pa.field("_part", pa.int64())]
    )

    def tag_data(b: pa.Table) -> pa.Table:
        if not b.num_columns or not b.num_rows:
            return tagged_schema.empty_table()
        ids = np.asarray(b[id_col].to_numpy(zero_copy_only=False), dtype=np.int64)
        return b.append_column("_drop", pa.nulls(b.num_rows, pa.int64())).append_column(
            "_part", pa.array(ids % P)
        )

    def tag_drops(b: pa.Table) -> pa.Table:
        if not b.num_columns or not b.num_rows:
            return tagged_schema.empty_table()
        k = np.asarray(b[drop_col].to_numpy(zero_copy_only=False), dtype=np.int64)
        cols = {n: pa.nulls(len(k), schema.field(n).type) for n in names}
        cols[id_col] = pa.array(k)
        cols["_drop"] = pa.array(np.ones(len(k), dtype=np.int64))
        cols["_part"] = pa.array(k % P)
        return pa.table(cols).cast(tagged_schema)

    unioned = ds.map_batches(tag_data, batch_format="pyarrow").union(
        drop_ids.map_batches(tag_drops, batch_format="pyarrow")
    )

    def anti(group: pa.Table) -> pa.Table:
        if not group.num_columns or not group.num_rows:
            return schema.empty_table()
        is_drop = np.asarray(pc.is_valid(group["_drop"]).to_numpy(zero_copy_only=False))
        doc_rows = group.filter(pa.array(~is_drop))
        dropped = np.unique(
            np.asarray(
                group.filter(pa.array(is_drop))[id_col].to_numpy(zero_copy_only=False),
                dtype=np.int64,
            )
        )
        ids = np.asarray(doc_rows[id_col].to_numpy(zero_copy_only=False), dtype=np.int64)
        keep = ~np.isin(ids, dropped)
        return doc_rows.select(names).filter(pa.array(keep))

    return unioned.groupby("_part").map_groups(anti, batch_format="pyarrow")


# Hash buckets of :func:`partitioned_sum`: a module constant, not a knob.
SUM_PARTITIONS = 64


def sum_partial(key: str, keys: "pa.Array", value: str, counts, hashes) -> "pa.Table":
    """One combiner block for :func:`partitioned_sum`: the batch's
    distinct ``keys`` with their partial ``counts``, tagged
    ``_part = hashes % SUM_PARTITIONS`` (64-bit int or uint hashes; the
    bits, not the sign, pick the bucket), plus one null-key zero row
    per bucket so that every reduce partition receives rows."""
    import pyarrow as pa

    K = SUM_PARTITIONS
    part = (np.asarray(hashes).view(np.uint64) % np.uint64(K)).astype(np.int64)
    return pa.table(
        {
            key: pa.concat_arrays([keys, pa.nulls(K, keys.type)]),
            value: pa.array(np.r_[np.asarray(counts, np.int64), np.zeros(K, np.int64)]),
            "_part": pa.array(np.r_[part, np.arange(K, dtype=np.int64)]),
        }
    )


def partitioned_sum(partials, key: str, value: str, finish=None):
    """Exact int64 ``sum(value)`` per distinct non-null ``key`` over a
    dataset of :func:`sum_partial` blocks; ``finish`` (table -> table)
    post-processes each partition's (key, value) sums in the same task.

    The reduce is ONE range shuffle on ``_part`` whose task runs ONE
    Arrow ``Table.group_by(key).aggregate`` over its whole partition:
    O(partitions) Python calls, where Ray's ``groupby(key).sum()`` pays
    ~0.1 ms per distinct key.  The ranges are explicit (SUM_PARTITIONS
    buckets split evenly over :func:`default_partitions` tasks) and
    every partial block carries a null-key row in every bucket, so no
    partition is ever empty: each reduce task runs its UDF and emits a
    typed table (Ray skips map UDFs on empty blocks and passes them on
    schema-less).  Only an input with no rows at all yields no typed
    block."""
    import pyarrow as pa
    import pyarrow.compute as pc

    K = SUM_PARTITIONS
    P = min(K, default_partitions())

    def reduce(part: pa.Table) -> pa.Table:
        agg = part.group_by(key).aggregate([(value, "sum")])
        out = pa.table({key: agg[key], value: agg[f"{value}_sum"]})
        out = out.filter(pc.is_valid(out[key]))
        return finish(out) if finish is not None else out

    return partials.sort("_part", boundaries=[K * j // P for j in range(1, P)]).map_batches(
        reduce, batch_size=None, batch_format="pyarrow"
    )


def default_partitions(scale: int = 2, cap: int = 64) -> int:
    """Hash-partition count for partitioned group stages: tracks the
    cluster CPU count (× scale, capped).  At real cluster scale pass an
    explicit count sized so one partition fits a task's memory."""
    import ray

    try:
        cpus = int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        cpus = 8
    return max(2, min(cap, cpus * scale))


def md5_hex_batch(strings) -> "pa.Array":
    """Vectorized md5 hex digest over an Arrow string array (DuckDB)."""
    import pyarrow as pa

    tbl = pa.table({"s": strings})
    return _duck().execute("SELECT md5(s) AS h FROM tbl").arrow()["h"].combine_chunks()


# int32 ListArray offset ceiling (monkeypatch-able in tests — the real
# threshold needs a >16 GiB batch to cross)
_LIST_OFFSET_MAX = 2**31 - 1


def list_array_auto(offsets64: np.ndarray, values: "pa.Array") -> "pa.Array":
    """List array over ``values`` with int64 ``offsets64``: 32-bit
    ListArray below the int32 ceiling, LargeListArray past it (a silent
    .astype(int32) wraps negative; a checked .cast raises — either way
    the scale path that exists for big partitions would die at scale).
    ``pc.binary_join`` returns plain ``string`` for both layouts."""
    import pyarrow as pa

    if int(offsets64[-1]) > _LIST_OFFSET_MAX:
        return pa.LargeListArray.from_arrays(pa.array(offsets64, pa.int64()), values)
    return pa.ListArray.from_arrays(
        pa.array(offsets64.astype(np.int32), pa.int32()), values
    )


def vec_list_array(mat: np.ndarray) -> "pa.Array":
    """(n, dim) float matrix → Arrow ``list<double>`` column without
    boxing (``mat.tolist()`` allocated n·dim Python floats per batch in
    embedding hot paths): one contiguous values buffer + arithmetic
    offsets.  Variable-size list type (not fixed_size_list) so empty
    batches — whose inferred dim is 0 — unify with full ones."""
    import pyarrow as pa

    m = np.ascontiguousarray(mat, dtype=np.float64)
    n, dim = m.shape
    offsets64 = np.arange(n + 1, dtype=np.int64) * dim
    # one int32/int64 offset-ceiling branch lives in list_array_auto
    return list_array_auto(offsets64, pa.array(m.ravel(), type=pa.float64()))
