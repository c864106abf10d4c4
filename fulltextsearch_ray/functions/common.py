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


def require_unique_ids(ids: np.ndarray, op: str, within=None, col: str = "doc_id") -> None:
    """THE duplicate-id guard of every doc-keyed stage: raise
    ``"<op>: <col> must be unique"`` when an id repeats — anywhere in
    ``ids``, or, given ``within``, inside one run of equal ``within``
    keys (then both arrays come sorted so that equal (within, id) pairs
    are adjacent, e.g. the caller's lexsort order).  A duplicated id
    merges two documents' rows: self-pairs, wrong set sizes or corrupt
    spans instead of an error."""
    if within is None:
        ids = np.sort(ids)
        same = ids[1:] == ids[:-1]
    else:
        same = (ids[1:] == ids[:-1]) & (within[1:] == within[:-1])
    if same.any():
        bad = np.unique(ids[1:][same])[:5]
        raise ValueError(f"{op}: {col} must be unique; duplicates: {bad.tolist()}")


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


def hash_partition(hashes, P: int) -> np.ndarray:
    """Partition id in [0, P) of each 64-bit hash: its BITS modulo P,
    so an int64 view and the uint64 it reinterprets land together."""
    h = np.asarray(hashes)
    if h.dtype != np.uint64:
        h = h.astype(np.int64).view(np.uint64)
    return (h % np.uint64(P)).astype(np.int64)


# THE size budget of every group stage: when the non-empty blocks of
# all its inputs total at most this many bytes, partition_apply runs
# in-process (monkeypatch-able: -1 forces the shuffle for any input
# that has rows)
GATHER_BYTES = 128 << 20


def footer_bytes(md) -> int:
    """Uncompressed bytes of a parquet file by its footer ``md``: what
    the write path holds a corpus or doc-table file to
    :data:`GATHER_BYTES` by, before it reads the file."""
    return sum(md.row_group(g).total_byte_size for g in range(md.num_row_groups))


def _gather(ds, budget: int) -> "tuple[list, int] | None":
    """(refs, bytes) of ``ds``'s non-empty blocks, or None as soon as
    their bytes pass ``budget``: the stream stops there, so an
    over-budget input never runs (or pins) past the budget plus one
    bundle."""
    refs, size = [], 0
    for bundle in ds.iter_internal_ref_bundles():
        for ref, meta in bundle.blocks:
            if meta.num_rows != 0:  # unknown (None) counts as rows
                refs.append(ref)
                size += meta.size_bytes
        if refs and size > budget:
            return None
    return refs, size


def _tables(refs) -> list:
    import ray
    from ray.data.block import BlockAccessor

    return [BlockAccessor.for_block(b).to_arrow() for b in ray.get(refs)]


def _hashes(b: "pa.Table", key) -> np.ndarray:
    return key(b) if callable(key) else b[key].to_numpy(zero_copy_only=False)


def isin_sorted(sorted_vals: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Boolean mask of ``vals`` present in the SORTED array — one
    searchsorted, no Python loop."""
    if not len(vals) or not len(sorted_vals):
        return np.zeros(len(vals), dtype=bool)
    j = np.minimum(np.searchsorted(sorted_vals, vals), len(sorted_vals) - 1)
    return sorted_vals[j] == vals


def broadcast_apply(ds, keys, col: str, fn, schema: "pa.Schema"):
    """Map-side join under :data:`GATHER_BYTES`: ``fn(table, sorted)``
    over ``ds``, where ``sorted`` holds the SORTED int64 values of the
    ``keys`` dataset's ``col``; None when ``keys`` passes the budget
    (the caller then co-partitions with :func:`partition_apply`).  When
    ``ds`` fits the rest of the budget, ``fn`` runs in-process once over
    all of it and the output carries ``schema`` even without rows;
    otherwise the array ships once via ``ray.put`` and every batch of
    ``ds`` calls ``fn`` — ``ds`` never shuffles.  Pass a materialized
    ``keys``: its probe then runs nothing twice."""
    import pyarrow as pa
    import ray

    got = _gather(keys, GATHER_BYTES)
    if got is None:
        return None
    vals = [np.asarray(t[col].to_numpy(zero_copy_only=False), dtype=np.int64) for t in _tables(got[0])]
    arr = np.sort(np.concatenate(vals)) if vals else np.empty(0, np.int64)
    data = _gather(ds, GATHER_BYTES - got[1])
    if data is None:
        ref = ray.put(arr)
        return ds.map_batches(lambda b: fn(b, ray.get(ref)), batch_format="pyarrow")
    tables = _tables(data[0])
    out = fn(pa.concat_tables(tables, promote_options="default"), arr) if tables else schema.empty_table()
    return ray.data.from_arrow(out.select(schema.names).cast(schema))


def subtract_ids(
    ds,
    drop_ids,
    *,
    id_col: str = "doc_id",
    drop_col: str = "drop_id",
    num_partitions: int | None = None,
):
    """Anti-join: ``ds`` minus rows whose ``id_col`` appears in the
    single-column ``drop_ids`` dataset.  A drop side within
    :data:`GATHER_BYTES` joins map-side (:func:`broadcast_apply`: no
    shuffle of ``ds``); a larger one co-partitions with ``ds`` in one
    :func:`partition_apply` on the id, each partition dropping its
    matches with one ``np.isin``.  The dedup-apply step
    (``components.canonical_docs``) runs on it."""
    import pyarrow as pa

    schema = ds.schema(fetch_if_missing=True).base_schema

    def ids(t: pa.Table, col: str) -> np.ndarray:
        return np.asarray(t[col].to_numpy(zero_copy_only=False), dtype=np.int64)

    drop_ids = drop_ids.materialize()
    out = broadcast_apply(
        ds, drop_ids, drop_col, lambda t, gone: t.filter(pa.array(~isin_sorted(gone, ids(t, id_col)))), schema
    )
    if out is not None:
        return out

    def anti(docs: pa.Table, drops: pa.Table) -> pa.Table:
        return docs.filter(pa.array(~np.isin(ids(docs, id_col), ids(drops, drop_col))))

    return partition_apply(
        [(ds, id_col, schema), (drop_ids, drop_col, pa.schema([(drop_col, pa.int64())]))],
        num_partitions or default_partitions(),
        anti,
        schema,
    )


def partition_apply(inputs, P: int, fn, schema: "pa.Schema"):
    """THE hash-partitioned group stage: co-locate the rows of every
    input by ``hash_partition(key, P)`` and run ``fn`` once per
    non-empty partition.

    ``inputs`` is a list of ``(ds, key, in_schema)``: ``key`` names an
    integer column or is a callable ``table -> hash array``; each block
    is projected and cast to ``in_schema``.  ``fn`` receives one Arrow
    table per input, holding that input's rows of the partition and only
    its columns (an input may contribute no rows; the partition as a
    whole never is empty), and returns rows of ``schema``.  The output
    carries ``schema`` however few rows there are, none included.

    ONE size policy picks where the partitions run.  The inputs stream
    in turn, block by block, until their blocks together pass
    :data:`GATHER_BYTES`.  When all of them fit, the gathered blocks are
    split by partition and ``fn`` runs in-process, once per non-empty
    partition — the same rows per call as the shuffle, without Ray's
    fixed cost per stage.  Otherwise every block is tagged with
    ``_side`` / ``_part``, null-padded to one union schema and followed
    by one ``_side = -1`` sentinel row per partition; ONE range shuffle
    on ``_part`` with explicit boundaries (no sampling pass) then hands
    every partition to its own reduce task, and an input gathered whole
    feeds it from its gathered blocks instead of running again.  The
    sentinels make every task run — Ray never calls a map UDF on a 0-row
    block — and emit a ``schema`` table, empty for a partition without
    real rows.  Ray passes 0-row blocks through every later map
    unchanged, so fold schema-changing steps into ``fn``."""
    import pyarrow as pa
    import ray

    fields: dict = {}
    for _ds, _key, in_schema in inputs:
        for f in in_schema:
            if fields.setdefault(f.name, f.with_nullable(True)).type != f.type:
                raise TypeError(f"partition_apply: column {f.name!r} typed differently by two inputs")
    owns = [pa.schema([fields[n] for n in in_schema.names]) for _ds, _key, in_schema in inputs]

    gathered, budget = [], GATHER_BYTES
    for ds, _key, _s in inputs:
        got = _gather(ds, budget)
        if got is None:
            break
        gathered.append(got[0])
        budget -= got[1]
    if len(gathered) == len(inputs):
        return ray.data.from_arrow(_apply_in_process(gathered, inputs, owns, P, fn, schema))

    tagged = pa.schema(
        list(fields.values()) + [pa.field("_side", pa.int8()), pa.field("_part", pa.int64())]
    )
    # boundaries 1..tasks-1 give each partition its own reduce task;
    # P = 1 still keeps one boundary (an empty list would mean
    # "sample"), and its idle second task gets a sentinel like any other
    tasks = max(P, 2)
    sentinels = pa.Table.from_arrays(
        [pa.nulls(tasks, f.type) for f in fields.values()]
        + [pa.array(np.full(tasks, -1, np.int8)), pa.array(np.arange(tasks, dtype=np.int64))],
        schema=tagged,
    )

    def tagger(side: int, key, own: "pa.Schema"):
        def tag(b: pa.Table) -> pa.Table:
            b = b.select(own.names).cast(own)
            n = b.num_rows
            cols = [b[f.name] if f.name in own.names else pa.nulls(n, f.type) for f in fields.values()]
            cols += [pa.array(np.full(n, side, np.int8)), pa.array(hash_partition(_hashes(b, key), P))]
            return pa.concat_tables([pa.Table.from_arrays(cols, schema=tagged), sentinels])

        return tag

    # a gathered input without rows adds nothing to the shuffle; the
    # input cut short by the probe (and any after it) runs from scratch
    feeds = [ray.data.from_arrow_refs(refs) if refs else None for refs in gathered]
    feeds += [ds for ds, _key, _s in inputs[len(gathered):]]
    first, *rest = [
        ds.map_batches(tagger(i, key, own), batch_format="pyarrow")
        for i, (ds, (_ds, key, _s), own) in enumerate(zip(feeds, inputs, owns))
        if ds is not None
    ]
    unioned = first.union(*rest) if rest else first
    # run is pickled into every task: let it capture column names, not datasets
    names = [own.names for own in owns]

    def run(part: pa.Table) -> pa.Table:
        side = np.asarray(part["_side"].to_numpy(zero_copy_only=False))
        if not (side >= 0).any():
            return schema.empty_table()
        out = fn(*[part.filter(pa.array(side == i)).select(n) for i, n in enumerate(names)])
        return out.select(schema.names).cast(schema)

    return unioned.sort("_part", boundaries=list(range(1, tasks))).map_batches(
        run, batch_size=None, batch_format="pyarrow"
    )


def _apply_in_process(gathered, inputs, owns, P: int, fn, schema: "pa.Schema") -> "pa.Table":
    """:func:`partition_apply` over gathered blocks: each input's rows
    are ordered by partition once, and ``fn`` sees one slice per input
    for every partition that holds a row."""
    import pyarrow as pa

    tables, bounds = [], []
    for refs, (_ds, key, _s), own in zip(gathered, inputs, owns):
        t = pa.concat_tables([own.empty_table()] + [b.select(own.names).cast(own) for b in _tables(refs)])
        part = hash_partition(_hashes(t, key), P) if t.num_rows else np.empty(0, np.int64)
        order = np.argsort(part, kind="stable")
        tables.append(t.take(pa.array(order)).combine_chunks())
        bounds.append(np.searchsorted(part[order], np.arange(P + 1)))
    outs = [schema.empty_table()]
    for p in range(P):
        sizes = [int(b[p + 1] - b[p]) for b in bounds]
        if any(sizes):
            out = fn(*[t.slice(b[p], n) for t, b, n in zip(tables, bounds, sizes)])
            outs.append(out.select(schema.names).cast(schema))
    return pa.concat_tables(outs)


def sum_partial(key: str, keys: "pa.Array", value: str, counts, hashes) -> "pa.Table":
    """One combiner block for :func:`partitioned_sum`: the batch's
    distinct ``keys`` with their partial ``counts`` and 64-bit int or
    uint ``hashes`` (the bits, not the sign, pick the partition)."""
    import pyarrow as pa

    return pa.table(
        {
            key: keys,
            value: pa.array(np.asarray(counts, np.int64)),
            "_hash": pa.array(np.asarray(hashes).view(np.int64)),
        }
    )


def partitioned_sum(partials, key: "pa.Field", value: str, finish=None):
    """Exact int64 ``sum(value)`` per distinct ``key`` (an Arrow field:
    name and type) over a dataset of :func:`sum_partial` blocks;
    ``finish`` (table -> table) post-processes each partition's
    (key, value) sums in the same task.

    One :func:`partition_apply` on the partial hash whose task runs ONE
    Arrow ``Table.group_by(key).aggregate`` over its whole partition:
    O(partitions) Python calls, where Ray's ``groupby(key).sum()`` pays
    ~0.1 ms per distinct key."""
    import pyarrow as pa

    sums_schema = pa.schema([key, pa.field(value, pa.int64())])
    finish = finish or (lambda t: t)

    def reduce(part: pa.Table) -> pa.Table:
        agg = part.group_by(key.name).aggregate([(value, "sum")])
        return finish(pa.table({key.name: agg[key.name], value: agg[f"{value}_sum"]}))

    return partition_apply(
        [(partials, "_hash", sums_schema.append(pa.field("_hash", pa.int64())))],
        default_partitions(),
        reduce,
        finish(sums_schema.empty_table()).schema,
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
