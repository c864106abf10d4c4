"""Dataset-splitting operators for training-data pipelines:
deterministic hash splits, stratified sampling, and concat-and-chunk
sequence packing.

All three are pure functions of the rows (seeded md5 hashes / global
token offsets), so results are identical across cluster sizes, retries
and re-runs — the property a 100-TB curation pipeline needs so a
resumed run reproduces the exact same train/val/test membership.

Scale shape: split/sample are embarrassingly-parallel ``map_batches``
filters (no shuffle at all).  ``pack_sequences`` needs ONE global
prefix sum over per-doc token counts; that is done with the two-stage
pattern (per-bucket partial sums → driver prefix over #buckets values
→ broadcast offsets → local cumsum per bucket inside one
``common.partition_apply`` task per hash partition of buckets), so
driver state is #buckets integers, never the corpus.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data

from ..tokenizer import flat_tokens
from .common import default_partitions, md5_u64_batch, partition_apply, sorted_runs

HASH_BUCKETS = 10_000  # split/sample granularity: 0.01%


def _hash_buckets(ids: pa.Array, salt: str) -> np.ndarray:
    """Stable per-row bucket in [0, HASH_BUCKETS) — md5 of the salted
    id string, bit-identical to the SQL oracles' md5 expression."""
    import pyarrow.compute as pc

    salted = pc.binary_join_element_wise(
        pa.scalar(salt + ":"), pc.cast(ids, pa.string()), ""
    )
    return (md5_u64_batch(salted) % HASH_BUCKETS).astype(np.int64)


def split_by_hash(
    ds: ray.data.Dataset,
    *,
    id_col: str = "doc_id",
    ratios: dict[str, float] | None = None,
    salt: str = "split",
) -> ray.data.Dataset:
    """Add a ``split`` column ("train"/"val"/... per ``ratios``) chosen
    by salted id hash.  No shuffle, no randomness: membership depends
    only on (salt, id), so incremental corpus additions never reshuffle
    existing rows between splits."""
    ratios = ratios or {"train": 0.9, "val": 0.05, "test": 0.05}
    if abs(sum(ratios.values()) - 1.0) > 1e-9:
        raise ValueError(f"ratios must sum to 1, got {ratios}")
    names = list(ratios)
    cuts = np.cumsum([ratios[n] for n in names]) * HASH_BUCKETS
    cuts = np.round(cuts).astype(np.int64)  # integer thresholds (exact)

    def assign(batch: pa.Table) -> pa.Table:
        b = _hash_buckets(batch[id_col], salt)
        idx = np.searchsorted(cuts, b, side="right")
        idx = np.minimum(idx, len(names) - 1)
        return batch.append_column("split", pa.array(np.array(names, dtype=object)[idx], pa.string()))

    return ds.map_batches(assign, batch_format="pyarrow")


def stratified_sample(
    ds: ray.data.Dataset,
    *,
    group_col: str,
    rates: dict[str, float],
    default_rate: float = 0.0,
    id_col: str = "doc_id",
    salt: str = "sample",
) -> ray.data.Dataset:
    """Keep each row with its group's rate (deterministic salted-hash
    Bernoulli): ``bucket(id) < rate * HASH_BUCKETS``.  The standard
    language/domain rebalancing step of corpus curation, as a pure
    shuffle-free filter."""

    def keep(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        b = _hash_buckets(batch[id_col], salt)
        # vectorized per-group thresholds: dictionary-encode resolves
        # each DISTINCT group value once (nulls included — they take
        # the default rate), then fancy-index; no per-row Python
        col = batch[group_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        d = col.dictionary_encode()
        vals = d.dictionary.to_pylist()
        per_group = np.array(
            [round(rates.get(g, default_rate) * HASH_BUCKETS) for g in vals]
            + [round(default_rate * HASH_BUCKETS)],  # sentinel slot for null rows
            dtype=np.int64,
        )
        idx = np.asarray(
            pc.fill_null(d.indices, len(vals)).to_numpy(zero_copy_only=False), dtype=np.int64
        )
        return batch.filter(pa.array(b < per_group[idx]))

    return ds.map_batches(keep, batch_format="pyarrow")


def pack_sequences(
    ds: ray.data.Dataset,
    *,
    seq_len: int,
    text_col: str = "text",
    id_col: str = "doc_id",
    bucket_size: int = 4096,
    max_buckets: int = 1_000_000,
) -> ray.data.Dataset:
    """Concat-and-chunk sequence packing: lay every document's tokens
    out on one global tape in ``id_col`` order and cut it into
    fixed-``seq_len`` training sequences.  Emits one span row per
    (document × overlapped sequence): ``(doc_id, seq_id, tok_lo,
    tok_hi)`` with 0-based in-document token ranges ``[tok_lo,
    tok_hi)`` — a document crossing a boundary yields one row per
    sequence it feeds.  Empty documents emit nothing.

    ``bucket_size`` is a floor: the effective bucket width auto-widens
    (power-of-two doublings) whenever the driver's running partial-sum
    table would exceed ``max_buckets`` entries — at 10^12 docs the
    driver still holds ~1e6 integers, not id_range/4096.  The widening
    happens WHILE streaming the partials (``iter_batches``), so there
    is no separate max-id aggregate pass and no unbounded gather: a
    prior version ran an extra ``Max("doc_id")`` execution just to
    pre-size the buckets, which doubled the fixed pipeline overhead.
    """
    if seq_len <= 0:
        raise ValueError("seq_len must be positive")

    sized_schema = pa.schema([("doc_id", pa.int64()), ("n_tok", pa.int64())])

    def count_tokens(batch: pa.Table) -> pa.Table:
        _, _, counts = flat_tokens(batch[text_col])
        ids = np.asarray(batch[id_col].to_numpy(zero_copy_only=False), dtype=np.int64)
        return pa.table(
            {"doc_id": pa.array(ids), "n_tok": pa.array(counts.astype(np.int64))}
        )

    # ONE tokenization pass; the tiny (doc_id, n_tok) table feeds both
    # the partial-sum scan and the final bucketed explode.
    sized = ds.map_batches(count_tokens, batch_format="pyarrow").materialize()

    # stage 1: per-floor-bucket partial sums per batch → STREAMED to
    # the driver, which folds them into a running (bucket → tokens)
    # array and doubles the bucket width whenever the array would pass
    # max_buckets.  Driver state is O(max_buckets) by construction —
    # never O(#batches) (iter_batches, not take_all) and never
    # O(id_range / floor_width).
    def bucket_sums(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch["doc_id"].to_numpy(zero_copy_only=False), dtype=np.int64)
        n = np.asarray(batch["n_tok"].to_numpy(zero_copy_only=False), dtype=np.int64)
        ub, inv = np.unique(ids // bucket_size, return_inverse=True)
        return pa.table(
            {"_bucket": pa.array(ub), "s": pa.array(np.bincount(inv, weights=n).astype(np.int64))}
        )

    acc_b = np.empty(0, dtype=np.int64)  # coarsened bucket ids (sorted, unique)
    acc_s = np.empty(0, dtype=np.int64)  # token totals per bucket
    shift = 0  # effective bucket width = bucket_size << shift
    for blk in sized.map_batches(bucket_sums, batch_format="pyarrow").iter_batches(
        batch_size=None, batch_format="pyarrow"
    ):
        b = np.asarray(blk["_bucket"].to_numpy(zero_copy_only=False), dtype=np.int64) >> shift
        s = np.asarray(blk["s"].to_numpy(zero_copy_only=False), dtype=np.int64)
        acc_b, inv = np.unique(np.concatenate([acc_b, b]), return_inverse=True)
        acc_s = np.bincount(inv, weights=np.concatenate([acc_s, s])).astype(np.int64)
        while len(acc_b) > max_buckets:
            shift += 1
            acc_b, inv = np.unique(acc_b >> 1, return_inverse=True)
            acc_s = np.bincount(inv, weights=acc_s).astype(np.int64)
    bucket_size <<= shift

    # exclusive prefix sum over the (sorted) bucket totals: the global
    # tape offset of each bucket's first token
    offsets_ref = ray.put((acc_b, np.cumsum(acc_s) - acc_s))

    # stage 2: per-bucket local cumsum + span explode (vectorized), one
    # task per hash partition of buckets
    def spans(group: pa.Table) -> pa.Table:
        buckets, bucket_start = ray.get(offsets_ref)
        ids = np.asarray(group["doc_id"].to_numpy(zero_copy_only=False), dtype=np.int64)
        n = np.asarray(group["n_tok"].to_numpy(zero_copy_only=False), dtype=np.int64)
        order = np.argsort(ids, kind="stable")
        ids, n = ids[order], n[order]
        b = ids // bucket_size
        # docs sorted by id are bucket-contiguous: the cumsum restarts
        # at each bucket's first doc, on top of that bucket's offset
        excl = np.cumsum(n) - n
        first, counts = sorted_runs(b)
        base = bucket_start[np.searchsorted(buckets, b[first])] - excl[first]
        start = np.repeat(base, counts) + excl  # global tape offset per doc
        end = start + n
        first_seq = start // seq_len
        last_seq = (end - 1) // seq_len  # inclusive; only valid where n > 0
        nseq = np.where(n > 0, last_seq - first_seq + 1, 0)
        doc_rep = np.repeat(np.arange(len(ids)), nseq)
        # per-span sequence id: first_seq[doc] + position within the doc's run
        span_pos = np.arange(len(doc_rep)) - np.repeat(
            np.concatenate([[0], np.cumsum(nseq)[:-1]]), nseq
        )
        seq_id = first_seq[doc_rep] + span_pos
        lo = np.maximum(seq_id * seq_len - start[doc_rep], 0)
        hi = np.minimum((seq_id + 1) * seq_len - start[doc_rep], n[doc_rep])
        return pa.table(
            {
                "doc_id": pa.array(ids[doc_rep]),
                "seq_id": pa.array(seq_id.astype(np.int64)),
                "tok_lo": pa.array(lo.astype(np.int64)),
                "tok_hi": pa.array(hi.astype(np.int64)),
            }
        )

    return partition_apply(
        [(sized, lambda t: t["doc_id"].to_numpy(zero_copy_only=False) // bucket_size, sized_schema)],
        default_partitions(),
        spans,
        pa.schema(
            [("doc_id", pa.int64()), ("seq_id", pa.int64()), ("tok_lo", pa.int64()), ("tok_hi", pa.int64())]
        ),
    )
