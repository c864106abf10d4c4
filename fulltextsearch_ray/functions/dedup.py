"""Deduplication operators: exact, MinHash+LSH, SimHash, n-gram Jaccard,
embedding-cosine near-dup.

Scale shapes (each documented where it matters):
* exact        — one ``partition_apply`` on the md5 of the text, min id
                 and count per digest: it moves (digest, doc_id) pairs
                 only, never the text.
* minhash_lsh  — shingle→minhash signature per doc (vectorized
                 map_batches: one DuckDB md5 pass + one streaming
                 permutation pass each), band→bucket explode, hash-
                 partitioned capped pair emit, candidate verify by
                 vectorized signature agreement.
* simhash      — 64-bit weighted-bit fingerprint per doc (one grouped
                 Arrow pass + numpy bit matrix per batch); plus
                 Hamming-distance near-dup pairs via bit-band LSH
                 (exact when max_hamming ≤ bands-1).
* ngram_jaccard— exact Jaccard over word n-gram shingle sets via a
                 df-capped shared-shingle join; (a, b) pair counting
                 with a local combiner; per-doc set sizes ride the
                 pair rows (no sizes join, one corpus pass).
* embedding    — banded random-hyperplane LSH buckets → per-bucket
                 pairwise cosine ≥ τ (hash-partitioned, capped), pair
                 dedup across bands.  ``method="exact"`` keeps the
                 all-pairs matmul as an explicitly small-input fallback.

Every pair-emitting group stage is HASH-PARTITIONED through
``common.partition_apply`` (rows shuffle by key-hash % P; per-key
grouping is vectorized inside the P partition tasks — never one
scheduled task per key; a small input runs in-process under the
primitive's one size budget) and CAPPED: a degenerate
bucket (empty docs, boilerplate, a stop-shingle) logs a skip instead
of emitting O(g²) pairs.  No stage materializes the dataset on the
driver.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..tokenizer import flat_tokens
from .common import (
    default_partitions,
    iter_capped_runs,
    md5_u64,
    md5_u64_batch,
    partition_apply,
    require_unique_ids,
    round6,
    sorted_runs,
    vec_list_array,
)

def _pair_runs(a: np.ndarray, b: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """(order, run starts) of the (a, b) rows: ``order`` lexsorts them
    by (a, b) and ``starts`` indexes the first row of every equal-pair
    run in that order — the one pair-dedup kernel."""
    order = np.lexsort((b, a))
    a, b = a[order], b[order]
    change = np.empty(len(a), dtype=bool)
    change[:1] = True
    change[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    return order, np.flatnonzero(change)


def _pair_hash(t: pa.Table) -> np.ndarray:
    """Partition hash of an (a, b) pair: a multiplicative mix of both
    ids (a bare ``a`` would send one hub doc's pairs to one task)."""
    a = np.asarray(t["a"].to_numpy(zero_copy_only=False), dtype=np.int64).astype(np.uint64)
    b = np.asarray(t["b"].to_numpy(zero_copy_only=False), dtype=np.int64).astype(np.uint64)
    return ((a * np.uint64(0x9E3779B97F4A7C15)) ^ (b * np.uint64(0xC2B2AE3D27D4EB4F))) >> np.uint64(33)


def _dedup_pairs_table(tbl: pa.Table, value_col: str, agg: str) -> pa.Table:
    """One row per (a, b) keeping the max/min value: one lexsort +
    reduceat per dedup partition."""
    a = np.asarray(tbl["a"].to_numpy(zero_copy_only=False), dtype=np.int64)
    b = np.asarray(tbl["b"].to_numpy(zero_copy_only=False), dtype=np.int64)
    v = np.asarray(tbl[value_col].to_numpy(zero_copy_only=False))
    if not len(a):
        return tbl
    order, starts = _pair_runs(a, b)
    sel = order[starts]
    reducer = np.maximum if agg == "max" else np.minimum
    return pa.table(
        {
            "a": pa.array(a[sel]),
            "b": pa.array(b[sel]),
            value_col: pa.array(reducer.reduceat(v[order], starts)).cast(tbl.schema.field(value_col).type),
        }
    )


def _pairs_pipeline(
    exploded: ray.data.Dataset,
    key_col: str,
    part_pairs,
    value_col: str,
    value_type: "pa.DataType",
    agg: str,
    P: int,
    schema: "pa.Schema",
) -> ray.data.Dataset:
    """Shared tail of every banded pair stage: hash-partition the
    exploded (key, id, payload) rows of ``schema`` on ``key_col``, run
    the vectorized ``part_pairs`` per partition, dedup across bands."""
    pair_schema = pa.schema([("a", pa.int64()), ("b", pa.int64()), (value_col, value_type)])

    def key(b: pa.Table) -> np.ndarray:
        k = np.asarray(b[key_col].to_numpy(zero_copy_only=False)).astype(np.uint64)
        return (k * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(33)

    pairs = partition_apply([(exploded, key, schema)], P, part_pairs, pair_schema)
    return _dedup_pairs(pairs, value_col, value_type, agg=agg, num_partitions=P)


def _dedup_pairs(
    pairs: ray.data.Dataset,
    value_col: str,
    value_type: "pa.DataType",
    agg: str = "max",
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Cross-band pair dedup: one row per (a, b) keeping the max/min
    value.  HASH-PARTITIONED on the pair key (P partition tasks, one
    vectorized lexsort + reduceat each) — a full-width two-key groupby
    over millions of candidate pair rows is the degenerate-corpus
    bottleneck this replaces."""
    out_schema = pa.schema([("a", pa.int64()), ("b", pa.int64()), (value_col, value_type)])
    return partition_apply(
        [(pairs, _pair_hash, out_schema)],
        num_partitions or default_partitions(),
        lambda g: _dedup_pairs_table(g, value_col, agg),
        out_schema,
    )


# --------------------------------------------------------------------------
# exact dedup
# --------------------------------------------------------------------------


def exact_dedup(ds: ray.data.Dataset, text_col: str = "text", id_col: str = "doc_id") -> ray.data.Dataset:
    """Keep the smallest id per exact text; emit (doc_id, n_copies).

    One :func:`common.partition_apply` on the md5 of the text, one Arrow
    ``group_by`` (min id, row count) per partition.  The stage moves
    only (md5, doc_id) pairs — the text stays put.
    """
    from .common import md5_hex_batch

    hashed = pa.schema([("h", pa.string()), ("doc_id", pa.int64())])

    def to_hash(batch: pa.Table) -> pa.Table:
        t = batch[text_col]
        h = md5_hex_batch(pc.fill_null(t, ""))
        if t.null_count:
            # SQL GROUP BY keeps NULL as its OWN group, distinct from
            # '' — mirror it ("NULL" cannot collide: md5 hex is 32
            # chars).  fill_null alone silently merged a NULL doc with
            # an empty doc and the apply path dropped a non-duplicate.
            h = pc.if_else(pc.is_null(t), pa.scalar("NULL"), h)
        return pa.table({"h": h, "doc_id": batch[id_col].cast(pa.int64())})

    def keep_first(t: pa.Table) -> pa.Table:
        agg = t.group_by("h").aggregate([("doc_id", "min"), ([], "count_all")])
        return pa.table({"doc_id": agg["doc_id_min"], "n_copies": agg["count_all"]})

    return partition_apply(
        [(ds.map_batches(to_hash, batch_format="pyarrow"), lambda t: md5_u64_batch(t["h"]), hashed)],
        default_partitions(),
        keep_first,
        pa.schema([("doc_id", pa.int64()), ("n_copies", pa.int64())]),
    )


# --------------------------------------------------------------------------
# shingling + minhash
# --------------------------------------------------------------------------

_MERSENNE31 = np.uint64((1 << 31) - 1)


def _shingles(text: str, n: int) -> list[str]:
    """Per-doc reference shingling (tests / tiny inputs only — the
    pipeline hot path uses :func:`shingle_batch`).  Delegates to the
    SAME Arrow tokenizer as shingle_batch: Python str.lower() diverges
    from utf8proc on U+0130 ('İ' → 'i'+combining dot vs 'i'), the
    exact trap tokenizer.py documents — a hand-rolled twin here made
    the 'matches shingle_batch exactly' claim false on such input."""
    toks_arr, _parent, _counts = flat_tokens(pa.array([text], pa.string()))
    toks = toks_arr.to_pylist()
    if len(toks) >= n:
        return [" ".join(toks[i : i + n]) for i in range(len(toks) - n + 1)]
    return [" ".join(toks)] if toks else []


def shingle_batch(texts: pa.Array | pa.ChunkedArray, n: int) -> tuple[pa.Array, np.ndarray]:
    """Vectorized word-n-gram shingling of a batch of documents.

    Returns (shingles, doc_index) parallel arrays, doc-contiguous in
    input order.  All string work is Arrow C++ kernels (lower, split,
    window join); only documents with 0 < tokens < n (rare) take a
    per-doc Python join.  Matches :func:`_shingles` exactly.
    """
    toks, parent, counts = flat_tokens(texts)
    L = len(toks)

    out_sh: list[pa.Array] = []
    out_doc: list[np.ndarray] = []
    if L >= n:
        # sliding windows: join n shifted views where the window stays
        # within one document
        cols = [toks.slice(i, L - n + 1) for i in range(n)]
        joined = pc.binary_join_element_wise(*cols, " ")
        inside = parent[: L - n + 1] == parent[n - 1 :]
        out_sh.append(joined.filter(pa.array(inside)))
        out_doc.append(parent[: L - n + 1][inside])
    # short docs (0 < tokens < n): one whole-sequence shingle
    short = np.flatnonzero((counts > 0) & (counts < n))
    if len(short):
        starts = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=starts[1:])
        # materialize ONLY the short docs' tokens (a whole-batch
        # to_pylist here allocated millions of Python strings for one
        # stray short doc — the allocator-pressure pattern the
        # tokenizer docstring warns about)
        out_sh.append(
            pa.array(
                [
                    " ".join(toks.slice(starts[d], counts[d]).to_pylist())
                    for d in short
                ],
                pa.string(),
            )
        )
        out_doc.append(short.astype(np.int64))
    if not out_sh:
        return pa.array([], pa.string()), np.empty(0, dtype=np.int64)
    sh = pa.concat_arrays([a.combine_chunks() if isinstance(a, pa.ChunkedArray) else a for a in out_sh])
    doc = np.concatenate(out_doc)
    order = np.argsort(doc, kind="stable")
    return sh.take(pa.array(order)), doc[order]


def _minhash_params(num_perm: int, seed: int = 7) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    p = int(_MERSENNE31)
    a = rng.integers(1, p, size=num_perm, dtype=np.int64).astype(np.uint64)
    b = rng.integers(0, p, size=num_perm, dtype=np.int64).astype(np.uint64)
    return a, b


def minhash_signature(shingles: list[str], a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """num_perm minhash values via (a*h + b) mod Mersenne31 over
    md5-based shingle hashes (deterministic, seed-fixed).

    Mersenne31 keeps every intermediate product < 2^62, so the whole
    (num_perm × n_shingles) permutation grid is pure uint64 numpy —
    no Python bignum fallback in the hot path.
    """
    if not shingles:
        return np.full(len(a), _MERSENNE31, dtype=np.uint64)
    h = np.array([md5_u64(s) for s in shingles], dtype=np.uint64) % _MERSENNE31
    vals = (a[:, None] * h[None, :] + b[:, None]) % _MERSENNE31
    return np.min(vals, axis=1)


class MinHashStage:
    """Actor-pool stage: doc → minhash signature (+ band-bucket rows).

    Fully batch-vectorized: ONE DuckDB md5 pass over every shingle of
    the batch, one streaming (a·h+b) mod M31 pass per permutation with
    segmented ``minimum.reduceat`` per document.  The bucket key is a
    64-bit FNV fold of the band's signature values (pure numpy, no
    per-doc Python work and no string materialization); grouping
    EXACTNESS does not depend on it — the pair stage sub-groups every
    bucket run by the true band signature bytes, so a key collision can
    neither merge buckets nor flip the cap decision, and the SQL
    oracle's (band, pattern) grouping is mirrored exactly.
    """

    def __init__(self, num_perm: int = 64, bands: int = 16, n: int = 3, text_col: str = "text"):
        assert num_perm % bands == 0
        self.a, self.b = _minhash_params(num_perm)
        self.num_perm = num_perm
        self.bands = bands
        self.rows_per_band = num_perm // bands
        self.n = n
        self.text_col = text_col

    def signatures(self, batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
        """(num_perm, n_docs) signature matrix + per-doc has-shingles
        mask for a batch.  Docs with no shingles keep the sentinel
        Mersenne31 signature and MUST be skipped by callers (they carry
        no content signal; emitting them would pair every empty doc)."""
        n_docs = batch.num_rows
        sh, sh_doc = shingle_batch(batch[self.text_col], self.n)
        sig = np.full((self.num_perm, n_docs), _MERSENNE31, dtype=np.uint64)
        present = np.zeros(n_docs, dtype=bool)
        if len(sh):
            h = md5_u64_batch(sh) % _MERSENNE31
            starts, _ = sorted_runs(sh_doc)
            docs_present = sh_doc[starts]
            # one streaming pass per permutation (an S-element vector
            # stays cache/stream friendly; a (num_perm × S) grid would
            # be num_perm full passes over a huge intermediate)
            for p in range(self.num_perm):
                vals = (self.a[p] * h + self.b[p]) % _MERSENNE31
                sig[p, docs_present] = np.minimum.reduceat(vals, starts)
            present[docs_present] = True
        return sig, present

    @property
    def schema(self) -> pa.Schema:
        """Schema of the exploded (doc, band-bucket) rows."""
        return pa.schema(
            [
                ("doc_id", pa.int64()),
                ("band", pa.int32()),
                ("bucket", pa.uint64()),
                ("sig", pa.binary(self.num_perm * 8)),
            ]
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        sig, present = self.signatures(batch)
        docs = np.flatnonzero(present)
        nd = len(docs)
        if not nd:
            return self.schema.empty_table()
        doc_ids = np.asarray(batch["doc_id"].to_numpy(zero_copy_only=False), dtype=np.int64)
        r = self.rows_per_band
        sp = sig[:, docs]  # (num_perm, nd)
        # full-signature bytes per doc: ONE big-endian buffer pass into
        # a fixed-size binary array (numpy S dtype / pa.array would
        # strip trailing null bytes — unusable for raw signatures)
        width = self.num_perm * 8
        be = np.ascontiguousarray(sp.T).astype(">u8")
        sig_arr = pa.FixedSizeBinaryArray.from_buffers(
            pa.binary(width), nd, [None, pa.py_buffer(be.tobytes())]
        )
        # numeric band bucket key: FNV-1a fold of (band, r sig values),
        # fully vectorized over docs — exactness is enforced downstream
        # (part_pairs sub-groups by the true band signature bytes)
        FNV_PRIME = np.uint64(0x100000001B3)
        keys = np.empty((self.bands, nd), dtype=np.uint64)
        for band in range(self.bands):
            h = np.full(nd, 0xCBF29CE484222325, dtype=np.uint64)
            h = (h ^ np.uint64(band)) * FNV_PRIME
            for row in sp[band * r : (band + 1) * r]:
                h = (h ^ row) * FNV_PRIME
            keys[band] = h
        tile = np.tile(np.arange(nd), self.bands)
        return pa.table(
            {
                "doc_id": pa.array(doc_ids[docs][tile], type=pa.int64()),
                "band": pa.array(np.repeat(np.arange(self.bands, dtype=np.int32), nd)),
                "bucket": pa.array(keys.reshape(-1), type=pa.uint64()),
                "sig": sig_arr.take(pa.array(tile)),
            }
        )


def minhash_lsh_pairs(
    ds: ray.data.Dataset,
    *,
    num_perm: int = 64,
    bands: int = 16,
    n: int = 3,
    threshold: float = 0.7,
    text_col: str = "text",
    max_bucket: int = 256,
    num_partitions: int | None = None,
    n_rows: int | None = None,
) -> ray.data.Dataset:
    """Near-duplicate candidate pairs via MinHash + LSH banding.

    ``n_rows`` is accepted and ignored: the input's size is measured
    where it matters, in ``common.partition_apply``.

    Pipeline: signature map_batches → band-bucket explode →
    HASH-PARTITIONED capped pair emit (``common.partition_apply`` on
    the bucket: ``num_partitions`` tasks — never one task per bucket —
    each doing vectorized per-bucket grouping) → pair dedup across
    bands, hash-partitioned on the pair.

    Buckets larger than ``max_bucket`` are SKIPPED (logged, not
    silently): one degenerate bucket (empty docs, boilerplate) would
    otherwise emit O(g²) pairs — the cap bounds worst-case work per
    group at scale.
    """
    P = num_partitions or default_partitions()
    stage = MinHashStage(num_perm=num_perm, bands=bands, n=n, text_col=text_col)
    exploded = ds.map_batches(stage, batch_format="pyarrow")

    rows_per_band = num_perm // bands

    def part_pairs(group: pa.Table) -> pa.Table:
        """All rows of one hash partition: sort by (bucket, exact band
        signature), emit verified pairs for every EXACT band-signature
        run of size 2..max_bucket.  Sub-grouping by the true signature
        bytes (not just the 64-bit bucket key) makes the grouping — and
        the cap decision — bit-identical to the SQL oracle's
        (band, pattern) groups even under key collisions."""
        n = group.num_rows
        bk = np.asarray(group["bucket"].to_numpy(zero_copy_only=False), dtype=np.uint64)
        ids = np.asarray(group["doc_id"].to_numpy(zero_copy_only=False), dtype=np.int64)
        bnd = np.asarray(group["band"].to_numpy(zero_copy_only=False), dtype=np.int64)
        # (n, num_perm) signature matrix — one zero-copy buffer view of
        # the fixed-size binary column
        sig_col = group["sig"].combine_chunks()
        # buffers()[1] is the VALUES buffer only for fixed-size
        # binary; on plain binary it would be the offsets buffer
        # and the matrix would silently decode garbage — fail loud
        # if a Ray serialization roundtrip ever relaxes the type
        assert pa.types.is_fixed_size_binary(sig_col.type), sig_col.type
        M = (
            np.frombuffer(sig_col.buffers()[1], dtype=">u8")[
                sig_col.offset * num_perm : (sig_col.offset + n) * num_perm
            ]
            .reshape(n, num_perm)
            .astype(np.uint64)
        )
        # per-row EXACT band-signature bytes: gather the band's columns
        r = rows_per_band
        col_idx = bnd[:, None] * r + np.arange(r, dtype=np.int64)[None, :]
        sub = np.take_along_axis(M, col_idx, axis=1)  # (n, r)
        subb = np.ascontiguousarray(sub).view(f"S{r * 8}").ravel()
        order = np.lexsort((ids, subb, bk))
        bk, subb, ids, M = bk[order], subb[order], ids[order], M[order]
        change = np.empty(n, dtype=bool)
        change[0] = True
        change[1:] = (bk[1:] != bk[:-1]) | (subb[1:] != subb[:-1])
        # a doc_id twice in one (bucket, band-signature) run means a
        # DUPLICATED input id (same doc emitted by two batches) —
        # triu would emit a silent (x, x) self-pair at est 1.0 and
        # a pair-drop consumer would delete the doc entirely
        require_unique_ids(ids, "minhash_lsh_pairs", within=np.cumsum(change))
        starts = np.flatnonzero(change)
        counts = np.diff(np.r_[starts, n])
        out_a, out_b, out_e = [], [], []  # numpy chunks, concatenated once
        # shared run-cap/skip-log contract over the composite
        # (bucket, band-signature) runs computed above
        from .common import iter_capped_precomputed

        for s, g in iter_capped_precomputed(starts, counts, max_bucket, "minhash_lsh"):
            sigs = M[s : s + g]
            agree = (sigs[:, None, :] == sigs[None, :, :]).mean(axis=2)
            iu, ju = np.triu_indices(int(g), k=1)
            est = agree[iu, ju]
            keep = est >= threshold
            gi = ids[s : s + g]
            out_a.append(gi[iu[keep]])
            out_b.append(gi[ju[keep]])
            out_e.append(est[keep])
        if not out_a:
            return pa.table(
                {"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64()),
                 "est_jaccard": pa.array([], pa.float64())}
            )
        return pa.table(
            {
                "a": pa.array(np.concatenate(out_a)),
                "b": pa.array(np.concatenate(out_b)),
                "est_jaccard": pa.array(round6(np.concatenate(out_e)), pa.float64()),
            }
        )

    return _pairs_pipeline(
        exploded, "bucket", part_pairs, "est_jaccard", pa.float64(), "max", P, stage.schema
    )


# --------------------------------------------------------------------------
# simhash
# --------------------------------------------------------------------------


def _simhash_packed(batch: pa.Table, text_col: str) -> tuple[np.ndarray, np.ndarray]:
    """(packed uint64 SimHash, has-tokens mask) per batch row (hash 0
    for empty/null docs) — the internal kernel behind
    :func:`simhash_batch`; the pair stage consumes this directly so
    fingerprints never round-trip through hex strings in the hot path.
    Token-less docs carry no content signal and MUST be skipped by
    pair emitters (their shared hash 0 would pair every empty /
    punctuation-only doc with every other — the same contract as
    MinHashStage's no-shingle mask, and the SQL oracle's tf-derived
    fingerprints exclude them by construction)."""
    n_docs = batch.num_rows
    toks, parent, _counts = flat_tokens(batch[text_col])
    out = np.zeros(n_docs, dtype=np.uint64)
    present = np.zeros(n_docs, dtype=bool)
    if len(toks):
        present[parent] = True
        tf_tbl = (
            pa.table({"d": pa.array(parent), "t": toks})
            .group_by(["d", "t"])
            .aggregate([("t", "count")])
        )
        d = np.asarray(tf_tbl["d"].to_numpy(zero_copy_only=False))
        tf = np.asarray(tf_tbl["t_count"].to_numpy(zero_copy_only=False), dtype=np.int64)
        h = md5_u64_batch(tf_tbl["t"].combine_chunks())
        order = np.argsort(d, kind="stable")
        d, tf, h = d[order], tf[order], h[order]
        bits = ((h[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1)).astype(np.int64)
        weighted = np.where(bits == 1, tf[:, None], -tf[:, None])
        starts, _ = sorted_runs(d)
        sums = np.add.reduceat(weighted, starts, axis=0)  # (docs_present, 64)
        packed = ((sums > 0).astype(np.uint64) << np.arange(64, dtype=np.uint64)[None, :]).sum(axis=1)
        out[d[starts]] = packed
    return out, present


def _hex16(packed: np.ndarray) -> pa.Array:
    """uint64 → 16-char lowercase hex, fully vectorized: nibble matrix
    (high→low) through a hex LUT into one fixed-width ASCII byte block,
    wrapped as an Arrow string array via from_buffers (offsets are just
    0,16,32,… — no per-row Python format())."""
    n = len(packed)
    shifts = (np.arange(15, -1, -1) * 4).astype(np.uint64)
    nibbles = (packed[:, None] >> shifts[None, :]) & np.uint64(0xF)
    lut = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)
    chars = lut[nibbles.astype(np.intp)]  # (n, 16) ASCII bytes
    offsets = np.arange(0, 16 * (n + 1), 16, dtype=np.int32)
    return pa.StringArray.from_buffers(
        n, pa.py_buffer(offsets.tobytes()), pa.py_buffer(chars.tobytes())
    )


def simhash_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """64-bit SimHash per doc: bit b of md5_u64(term), weighted by tf,
    sign-summed.  Exact twin of the SQL oracle (same md5-derived bits).

    Vectorized end-to-end: Arrow tokenize + (doc, term) tf grouping,
    ONE DuckDB md5 pass over distinct (doc, term) rows, numpy
    (rows × 64) bit matrix with per-doc segmented reduction, and LUT
    hex encoding of the output column — no per-document loop anywhere.
    """
    packed, present = _simhash_packed(batch, text_col)
    # token-less docs (empty/punctuation-only/NULL text) emit NO row —
    # the oracle's tf CTE (GROUP BY doc_id, term) has nothing to group
    # for them, and a fabricated all-zero fingerprint row would break
    # row-count parity (and pair every empty doc with every other)
    keep = pa.array(present)
    return pa.table(
        {"doc_id": batch["doc_id"].filter(keep), "simhash": _hex16(packed[present])}
    )


def simhash_neardup_pairs(
    ds: ray.data.Dataset,
    *,
    max_hamming: int = 3,
    bands: int = 4,
    text_col: str = "text",
    max_bucket: int = 1024,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Near-duplicate pairs by SimHash Hamming distance: (a < b,
    hamming ≤ ``max_hamming``).

    Bit-band LSH over the 64-bit fingerprint: ``bands`` equal slices,
    candidates share at least one identical slice, verified by exact
    popcount(xor).  By pigeonhole this is EXACT (recall 1) whenever
    ``max_hamming ≤ bands - 1`` — with ≤ bands-1 differing bits, some
    band must be untouched.  Same scale shape as the other dedup ops:
    hash-partitioned capped pair emit, one shuffle of (key, doc, hash)
    triples, pair dedup across bands.
    """
    assert 64 % bands == 0
    width = 64 // bands
    P = num_partitions or default_partitions()
    schema = pa.schema([("key", pa.int64()), ("doc_id", pa.int64()), ("h", pa.uint64())])

    def explode(batch: pa.Table) -> pa.Table:
        h, present = _simhash_packed(batch, text_col)
        ids = np.asarray(batch["doc_id"].to_numpy(zero_copy_only=False), dtype=np.int64)
        # skip token-less docs — no content signal; their shared hash 0
        # would mutually pair every empty/punctuation-only doc (the
        # minhash path skips no-shingle docs for the same reason, and
        # the SQL oracle never assigns them a fingerprint)
        h, ids = h[present], ids[present]
        tables = []
        for band in range(bands):
            bits = (h >> np.uint64(band * width)) & np.uint64((1 << width) - 1)
            key = (np.int64(band) << np.int64(width)) | bits.astype(np.int64)
            tables.append(
                pa.table(
                    {
                        "key": pa.array(key),
                        "doc_id": pa.array(ids),
                        "h": pa.array(h, pa.uint64()),
                    }
                )
            )
        return pa.concat_tables(tables)

    def part_pairs(group: pa.Table) -> pa.Table:
        from .similarity import popcount64

        keys = np.asarray(group["key"].to_numpy(zero_copy_only=False), dtype=np.int64)
        ids = np.asarray(group["doc_id"].to_numpy(zero_copy_only=False), dtype=np.int64)
        h = np.asarray(group["h"].to_numpy(zero_copy_only=False), dtype=np.uint64)
        order = np.lexsort((ids, keys))
        keys, ids, h = keys[order], ids[order], h[order]
        # duplicated input id → silent (x, x) pair
        require_unique_ids(ids, "simhash_neardup_pairs", within=keys)
        out_a, out_b, out_h = [], [], []
        for s, g in iter_capped_runs(keys, max_bucket, "simhash_neardup"):
            gi = ids[s : s + g]
            gh = h[s : s + g]
            iu, ju = np.triu_indices(int(g), k=1)
            ham = popcount64(gh[iu] ^ gh[ju]).astype(np.int64)
            keep = ham <= max_hamming
            out_a.append(gi[iu[keep]])
            out_b.append(gi[ju[keep]])
            out_h.append(ham[keep])
        if not out_a:
            return pa.table(
                {"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64()),
                 "hamming": pa.array([], pa.int64())}
            )
        return pa.table(
            {
                "a": pa.array(np.concatenate(out_a)),
                "b": pa.array(np.concatenate(out_b)),
                "hamming": pa.array(np.concatenate(out_h)),
            }
        )

    exploded = ds.map_batches(explode, batch_format="pyarrow")
    return _pairs_pipeline(exploded, "key", part_pairs, "hamming", pa.int64(), "min", P, schema)


# --------------------------------------------------------------------------
# exact n-gram jaccard
# --------------------------------------------------------------------------


def ngram_jaccard_pairs(
    ds: ray.data.Dataset,
    *,
    n: int = 3,
    threshold: float = 0.5,
    text_col: str = "text",
    shingle_df_cap: int = 1024,
) -> ray.data.Dataset:
    """Exact word-n-gram Jaccard similarity pairs (a < b, jacc ≥ τ).

    Shape: distinct (shingle-HASH, doc) explode → hash-partition by
    shingle hash (P ``common.partition_apply`` tasks, vectorized
    per-shingle pair emit with LOCAL pair pre-aggregation) → one
    partition_apply on the (a, b) pair that sums the shared-shingle
    counts and scores.  Shingles travel as their 64-bit md5 prefix from
    the explode on (``md5_u64_batch``, same device as ``spans.py``): the
    shuffle moves 8-byte ints instead of Python-object strings and the
    pair stage sorts int64 keys, not object arrays.  Hash collisions
    (≈0 at 2^64) merge shingles; the SQL oracle mirrors the same hash
    grouping exactly, collisions included.  Shingles with document
    frequency > ``shingle_df_cap`` are dropped from the pair stage
    (stop-shingle filter, logged — a shared boilerplate shingle would
    otherwise emit O(df²) pairs).  Doc ids are any int64: pairs travel
    as two id columns.

    Per-doc set sizes RIDE ON THE PAIR ROWS: the explode attaches each
    doc's distinct-shingle count to every (hash, doc) row (docs never
    span batches, so the per-batch count is the global set size), the
    pair stage emits ``size_a + size_b`` alongside each pair, and the
    scorer computes ``jacc = c / (sa + sb − c)`` with no sizes join at
    all — the previous design re-tokenized the ENTIRE corpus a second
    time just to build a sizes table and then joined it back (broadcast
    or co-group).  SQL-oracle-checkable (shared-shingle join with the
    same df cap).
    """
    P = default_partitions()
    shingle_schema = pa.schema([("h", pa.int64()), ("doc_id", pa.int64()), ("nsh", pa.int64())])
    count_schema = pa.schema(
        [("a", pa.int64()), ("b", pa.int64()), ("cnt", pa.int64()), ("sab", pa.int64())]
    )
    out_schema = pa.schema([("a", pa.int64()), ("b", pa.int64()), ("jaccard", pa.float64())])

    def explode(batch: pa.Table) -> pa.Table:
        sh, dix = shingle_batch(batch[text_col], n)
        doc_ids = np.asarray(batch["doc_id"].to_numpy(zero_copy_only=False), dtype=np.int64)
        # a within-batch duplicate would silently merge two docs'
        # shingle sets in the distinct below (cross-batch duplicates
        # are caught in part_pairs)
        require_unique_ids(doc_ids, "ngram_jaccard_pairs")
        # int64 VIEW of the uint64 md5 prefix (the reinterpret is a
        # bijection; partitions hash its bits) — the shingle STRING
        # never leaves this task
        h = md5_u64_batch(sh).view(np.int64)
        tbl = pa.table({"h": pa.array(h), "doc_id": pa.array(doc_ids[dix], pa.int64())})
        # distinct (shingle-hash, doc) within the batch; docs never span
        # batches, so this is globally distinct
        tbl = tbl.group_by(["h", "doc_id"]).aggregate([])
        d = np.asarray(tbl["doc_id"].to_numpy(zero_copy_only=False), dtype=np.int64)
        uniq_d, inv = np.unique(d, return_inverse=True)
        nsh = np.bincount(inv)[inv]
        # one SENTINEL row per doc (nsh = −1 marks it), keyed by a hash
        # of the doc id over a domain disjoint from word shingles
        # ("D:<id>" can never be a word n-gram: the tokenizer lowercases
        # and keeps only [\w-] chars, so neither 'D' nor ':' appears in
        # any shingle — and unlike a NUL prefix, pa.array does not
        # truncate it, so sentinels spread across partitions instead of
        # all hashing to md5('')): two copies of the same doc_id in
        # DIFFERENT batches — even with no shared shingle — land
        # adjacent in the same hash partition and trip part_pairs'
        # duplicate guard, restoring the global uniqueness check the
        # old sizes-table join provided.  Cost: one extra 3-int64 row
        # per doc (~1/nsh of the shuffle).
        sent_strs = np.char.add("D:", doc_ids.astype("U"))
        sent_h = md5_u64_batch(pa.array(sent_strs)).view(np.int64)
        return pa.table({
            "h": pa.array(np.concatenate([
                np.asarray(tbl["h"].to_numpy(zero_copy_only=False), dtype=np.int64), sent_h,
            ])),
            "doc_id": pa.array(np.concatenate([d, doc_ids])),
            "nsh": pa.array(np.concatenate([nsh.astype(np.int64), np.full(len(doc_ids), -1, np.int64)])),
        })

    def part_pairs(group: pa.Table) -> pa.Table:
        """All (shingle-hash, doc, set-size) rows of one hash partition:
        sort by hash, emit (a, b) doc pairs per shingle run (df-capped)
        plus the pair's size sum, pre-aggregated locally (combiner)
        before the pair shuffle.  Pure int64 numpy sort — no
        Python-object strings anywhere."""
        sh = np.asarray(group["h"].to_numpy(zero_copy_only=False), dtype=np.int64)
        ids = np.asarray(group["doc_id"].to_numpy(zero_copy_only=False), dtype=np.int64)
        nsh = np.asarray(group["nsh"].to_numpy(zero_copy_only=False), dtype=np.int64)
        order = np.lexsort((ids, sh))
        sh, ids, nsh = sh[order], ids[order], nsh[order]
        # duplicated doc_id guard: the explode is distinct per batch,
        # so an adjacent equal (hash, doc) row here means the same
        # doc_id arrived in two input batches — the ridden set size
        # would be wrong; fail loudly (identical-content duplicates
        # share every shingle, so this fires on the first shared
        # partition)
        require_unique_ids(ids, "ngram_jaccard_pairs", within=sh)
        # drop the per-doc sentinel rows (nsh = −1) now that the
        # duplicate check has seen them — they never join a pair run
        real = nsh >= 0
        sh, ids, nsh = sh[real], ids[real], nsh[real]
        a_parts, b_parts, sab_parts = [], [], []
        for s, g in iter_capped_runs(sh, shingle_df_cap, "ngram_jaccard"):
            gi = ids[s : s + g]
            gn = nsh[s : s + g]
            iu, ju = np.triu_indices(int(g), k=1)
            a_parts.append(gi[iu])
            b_parts.append(gi[ju])
            sab_parts.append(gn[iu] + gn[ju])
        if not a_parts:
            return count_schema.empty_table()
        a, b = np.concatenate(a_parts), np.concatenate(b_parts)
        order, starts = _pair_runs(a, b)
        sel = order[starts]
        return pa.table(
            {
                "a": pa.array(a[sel]),
                "b": pa.array(b[sel]),
                "cnt": pa.array(np.diff(np.r_[starts, len(a)])),
                # constant per pair (sizes are per-doc constants)
                "sab": pa.array(np.concatenate(sab_parts)[sel]),
            }
        )

    def score(group: pa.Table) -> pa.Table:
        a = np.asarray(group["a"].to_numpy(zero_copy_only=False), dtype=np.int64)
        b = np.asarray(group["b"].to_numpy(zero_copy_only=False), dtype=np.int64)
        cnt = np.asarray(group["cnt"].to_numpy(zero_copy_only=False), dtype=np.int64)
        sab = np.asarray(group["sab"].to_numpy(zero_copy_only=False), dtype=np.int64)
        order, starts = _pair_runs(a, b)
        sel = order[starts]
        common = np.add.reduceat(cnt[order], starts).astype(np.float64)
        jacc = round6(common / np.maximum(sab[sel] - common, 1.0))
        keep = jacc >= threshold
        return pa.table(
            {"a": pa.array(a[sel][keep]), "b": pa.array(b[sel][keep]), "jaccard": pa.array(jacc[keep])}
        )

    shingle_docs = ds.map_batches(explode, batch_format="pyarrow")
    pair_counts = partition_apply([(shingle_docs, "h", shingle_schema)], P, part_pairs, count_schema)
    return partition_apply([(pair_counts, _pair_hash, count_schema)], P, score, out_schema)


# --------------------------------------------------------------------------
# embedding cosine near-dup
# --------------------------------------------------------------------------


def embedding_neardup_pairs(
    ds: ray.data.Dataset,
    *,
    threshold: float = 0.95,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    method: str = "lsh",
    bands: int = 8,
    planes_per_band: int = 6,
    seed: int = 13,
    max_bucket: int = 4096,
    num_partitions: int | None = None,
) -> "ray.data.Dataset | pa.Table":
    """Pairs (a < b) with cosine(v_a, v_b) ≥ τ.

    Default ``method="lsh"`` is the scale path: banded random-
    hyperplane LSH (``bands`` bands × ``planes_per_band`` planes,
    seeded, deterministic) — each vector lands in ``bands`` buckets,
    pairs are scored exactly (cosine) ONLY within shared buckets, one
    ``common.partition_apply`` task per bucket hash partition, then
    deduped across bands.  One
    shuffle of (bucket, id, vector) rows, bounded per-task memory,
    recall < 1 by construction (the SQL oracle mirrors the bucketing
    exactly, so the correctness gate is still exact).

    ``method="exact"`` is the all-pairs matmul — driver-side, O(n²),
    kept ONLY as a small-input fallback / recall reference for tests.
    """
    if method == "exact":
        return _embedding_neardup_exact(ds, threshold=threshold, id_col=id_col, vec_col=vec_col)

    from .similarity import _to_matrix, lsh_hyperplanes

    n_planes = bands * planes_per_band

    def bucket_stage(batch: pa.Table) -> pa.Table:
        mat = _to_matrix(batch, vec_col)
        mat = mat / np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)
        planes = lsh_hyperplanes(mat.shape[1], bits=n_planes, seed=seed)
        signs = (mat @ planes.T) > 0  # (n, n_planes)
        ids = np.asarray(batch[id_col].to_numpy(zero_copy_only=False), dtype=np.int64)
        weights = 1 << np.arange(planes_per_band, dtype=np.int64)
        # build the Arrow columns ONCE (the per-band loop used to redo
        # the O(n·dim) tolist conversion for every band)
        vid_arr = pa.array(ids, pa.int64())
        vec_arr = vec_list_array(mat)
        tables = []
        for band in range(bands):
            chunk = signs[:, band * planes_per_band : (band + 1) * planes_per_band]
            pattern = (chunk.astype(np.int64) * weights[None, :]).sum(axis=1)
            key = band * (1 << planes_per_band) + pattern
            tables.append(
                pa.table({"key": pa.array(key, pa.int64()), "vid": vid_arr, "vec": vec_arr})
            )
        return pa.concat_tables(tables)

    P = num_partitions or default_partitions()
    exploded = ds.map_batches(bucket_stage, batch_format="pyarrow")
    schema = pa.schema(
        [("key", pa.int64()), ("vid", pa.int64()), ("vec", pa.list_(pa.float64()))]
    )

    def part_pairs(group: pa.Table) -> pa.Table:
        """All rows of one hash partition: per-bucket exact pairwise
        cosine for every key run of size 2..max_bucket."""
        keys = np.asarray(group["key"].to_numpy(zero_copy_only=False), dtype=np.int64)
        ids = np.asarray(group["vid"].to_numpy(zero_copy_only=False), dtype=np.int64)
        order = np.lexsort((ids, keys))
        keys, ids = keys[order], ids[order]
        # duplicated input id → silent (x, x) pair
        require_unique_ids(ids, "embedding_neardup_pairs", within=keys, col=id_col)
        mat = _to_matrix(group, "vec")[order]
        out_a, out_b, out_c = [], [], []
        for s, g in iter_capped_runs(keys, max_bucket, "embedding_neardup"):
            gm = mat[s : s + g]
            sims = gm @ gm.T
            iu, ju = np.triu_indices(int(g), k=1)
            vals = sims[iu, ju]
            keep = vals >= threshold
            gi = ids[s : s + g]
            out_a.append(gi[iu[keep]])
            out_b.append(gi[ju[keep]])
            out_c.append(vals[keep])
        if not out_a:
            return pa.table(
                {"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64()),
                 "cosine": pa.array([], pa.float64())}
            )
        return pa.table(
            {
                "a": pa.array(np.concatenate(out_a)),
                "b": pa.array(np.concatenate(out_b)),
                "cosine": pa.array(round6(np.concatenate(out_c)), pa.float64()),
            }
        )

    return _pairs_pipeline(exploded, "key", part_pairs, "cosine", pa.float64(), "max", P, schema)


def _embedding_neardup_exact(
    ds: ray.data.Dataset, *, threshold: float, id_col: str, vec_col: str
) -> pa.Table:
    """All-pairs exact cosine — SMALL-INPUT fallback only (driver-side
    materialization + O(n²) matmul; the default LSH path is the scale
    shape)."""
    import ray

    empty = pa.table(
        {"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64()),
         "cosine": pa.array([], pa.float64())}
    )
    tbls = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    if not tbls:
        return empty
    tbl = pa.concat_tables(tbls)
    ids = np.asarray(tbl[id_col].to_numpy(zero_copy_only=False), dtype=np.int64)
    mat = np.stack([np.asarray(v, dtype=np.float64) for v in tbl[vec_col].to_pylist()])
    mat = mat / np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)
    order = np.argsort(ids, kind="stable")
    ids, mat = ids[order], mat[order]
    sims = mat @ mat.T
    iu, ju = np.triu_indices(len(ids), k=1)
    mask = sims[iu, ju] >= threshold
    return pa.table(
        {
            "a": pa.array(ids[iu[mask]], pa.int64()),
            "b": pa.array(ids[ju[mask]], pa.int64()),
            "cosine": pa.array(round6(sims[iu[mask], ju[mask]]), pa.float64()),
        }
    )
