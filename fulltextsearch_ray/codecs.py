"""Delta + varint posting-list compression kernels (numpy-vectorized).

Re-expresses the reference's compressed posting codecs
(``PostingListVarIntDeltaWriter.cs`` — delta + LEB128 varint in fixed
blocks with seek support; ``PostingListBinaryDeltaWriter.cs`` — delta +
group-varint) as pure-numpy array kernels over Arrow ``binary``
payloads.  The byte format here is our own (this is not a port); the
*semantics* replicated are: strictly-ordered occurrence streams, delta
gaps, variable-byte packing, and per-block metadata enabling
binary-search seeks (``LowerBound``) without decoding — the shape that
block-max WAND pruning needs.

All encode/decode paths are O(bytes) numpy passes — no per-value
Python loops.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "varint_encode",
    "varint_decode",
    "varint_encode_offsets",
    "varint_widths",
    "delta_encode",
    "delta_decode",
    "encode_posting_block",
    "decode_posting_block",
    "decode_posting_columns",
    "restart_prefix_sum",
    "format_posting_text",
    "PostingBlock",
    "SkipList",
    "lower_bound_block",
]

# a varint of v takes 1 + #{k ≥ 1 : v ≥ 2^(7k)} bytes
_THRESHOLDS = [np.uint64(1) << np.uint64(7 * k) for k in range(1, 10)]


def varint_encode(values: np.ndarray) -> bytes:
    """LEB128 variable-byte encode a uint64 array (vectorized).

    7 value bits per byte, little-endian groups, high bit = continuation
    — the same wire idea as the reference's ``Common/VarInt.cs:27-101``.
    """
    out, _ = varint_encode_offsets(np.asarray(values, dtype=np.uint64))
    return out.tobytes()


def varint_encode_offsets(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Like :func:`varint_encode` but returns (byte_array, ends) where
    ``ends[i]`` is the byte offset just past value ``i`` — enabling one
    global encode to be SLICED per term/run without re-encoding (the
    multi-term vectorized encoder depends on this)."""
    v = np.ascontiguousarray(values, dtype=np.uint64)
    n = len(v)
    if n == 0:
        return np.empty(0, dtype=np.uint8), np.empty(0, dtype=np.int64)
    vmax = v.max()
    if vmax < np.uint64(128):
        # all-1-byte fast path (tfs, fields, small gaps — the bulk of
        # posting payloads): the encoding IS the value byte
        return v.astype(np.uint8), np.arange(1, n + 1, dtype=np.int64)
    nb = varint_widths(v, vmax)
    ends = np.cumsum(nb)
    starts = ends - nb
    out = np.empty(int(ends[-1]), dtype=np.uint8)  # every byte is written below
    # byte 0 of every value: its low 7 bits, no selection
    out[starts] = (v.astype(np.uint8) & np.uint8(0x7F)) | ((nb > 1).astype(np.uint8) << np.uint8(7))
    mask7 = np.uint64(0x7F)
    for k in range(1, int(nb.max())):
        sel = nb > k
        idx = starts[sel] + k
        chunk = (v[sel] >> np.uint64(7 * k)) & mask7
        cont = (nb[sel] - 1 > k).astype(np.uint8) << 7
        out[idx] = chunk.astype(np.uint8) | cont
    return out, ends


def varint_widths(v: np.ndarray, vmax: "np.uint64 | None" = None) -> np.ndarray:
    """Bytes of each uint64 value's varint (int64): one comparison per
    threshold 2^(7k) ≤ ``vmax`` (the values' max, computed when not
    given) — for ids and gaps under 2^14 that is two passes, where a
    ``searchsorted`` over all nine thresholds costs a binary search per
    value."""
    nb = np.ones(len(v), dtype=np.int64)
    if len(v) == 0:
        return nb
    vmax = v.max() if vmax is None else vmax
    for t in _THRESHOLDS:
        if t > vmax:
            break
        nb += v >= t
    return nb


def varint_decode(buf: bytes | memoryview | np.ndarray, count: int | None = None) -> np.ndarray:
    """Decode a LEB128 buffer back into a uint64 array (vectorized).

    Raises ValueError on a truncated stream (trailing continuation
    byte) or a ``count`` mismatch — real exceptions, not asserts, so
    corrupt posting data fails loudly under ``python -O`` too."""
    arr = np.frombuffer(buf, dtype=np.uint8)
    if len(arr) == 0:
        if count:
            # an empty buffer with a nonzero expected count is the same
            # corruption as a short one — fail at the codec boundary
            raise ValueError(f"varint_decode: expected {count}, got 0")
        return np.empty(0, dtype=np.uint64)
    is_end = arr < 0x80
    if not is_end[-1]:
        raise ValueError("varint_decode: truncated stream (ends mid-varint)")
    if is_end.all():
        # all-1-byte fast path: every byte is its own value
        values = arr.astype(np.uint64)
    else:
        ends = np.flatnonzero(is_end)
        starts = np.empty_like(ends)
        starts[0] = 0
        starts[1:] = ends[:-1] + 1
        width = ends - starts  # bytes of each varint, minus one
        # a uint64 varint is at most 10 bytes, and byte 10 (shift 63) may
        # only carry bit 0 — numpy wraps shifts >= 64 silently, so corrupt
        # over-long varints would otherwise decode to garbage, not an error
        wmax = int(width.max())
        if wmax > 9:
            raise ValueError("varint_decode: varint longer than 10 bytes (corrupt stream)")
        if wmax == 9 and (arr[ends[width == 9]] > 1).any():
            raise ValueError("varint_decode: varint overflows uint64 (corrupt stream)")
        # byte k of every value longer than k bytes, one pass per k: most
        # values take one or two bytes
        values = (arr[starts] & 0x7F).astype(np.uint64)
        for k in range(1, wmax + 1):
            sel = np.flatnonzero(width >= k)
            values[sel] |= (arr[starts[sel] + k] & 0x7F).astype(np.uint64) << np.uint64(7 * k)
    if count is not None and len(values) != count:
        raise ValueError(f"varint_decode: expected {count}, got {len(values)}")
    return values


def delta_encode(values: np.ndarray) -> np.ndarray:
    """Gap-encode a non-decreasing uint64 sequence (first kept absolute)."""
    v = np.asarray(values, dtype=np.uint64)
    if len(v) == 0:
        return v
    out = np.empty_like(v)
    out[0] = v[0]
    np.subtract(v[1:], v[:-1], out=out[1:])
    return out


def delta_decode(deltas: np.ndarray) -> np.ndarray:
    return np.cumsum(np.asarray(deltas, dtype=np.uint64), dtype=np.uint64)


class PostingBlock(NamedTuple):
    """One encoded posting block for a term.

    Entries are distinct ``(doc, field)`` pairs in (doc, field) order;
    per entry ``tf`` occurrences with ascending token positions.  The
    per-block stats (first/last doc, df, cf, max_tf) are the block-max
    metadata used for seeks and WAND pruning — the analog of the
    reference's per-block first-occurrence array
    (``PostingListVarIntDeltaReader.cs:163-222``).
    """

    docs: bytes        # varint(delta(doc_ids))   [df values]
    fields: bytes      # varint(field_ids)        [df values]
    tfs: bytes         # varint(tf)               [df values]
    positions: bytes   # varint(delta(token_ids per entry)) [cf values]
    first_doc: int
    last_doc: int
    df: int            # distinct (doc, field) entries in block
    cf: int            # total occurrences in block
    max_tf: int


def encode_posting_block(docs: np.ndarray, fields: np.ndarray, tokens: np.ndarray) -> PostingBlock:
    """Encode sorted occurrences (doc, field, token) into one block.

    Input MUST be lexicographically sorted by (doc, field, token) —
    the invariant the reference's IPostingList contract states
    ("ordered list of occurrences, smallest to greatest").
    """
    docs = np.ascontiguousarray(docs, dtype=np.uint64)
    fields = np.ascontiguousarray(fields, dtype=np.uint64)
    tokens = np.ascontiguousarray(tokens, dtype=np.uint64)
    cf = len(docs)
    if cf == 0:
        return PostingBlock(b"", b"", b"", b"", 0, 0, 0, 0, 0)
    # entry boundaries: where (doc, field) changes
    change = np.empty(cf, dtype=bool)
    change[0] = True
    np.logical_or(docs[1:] != docs[:-1], fields[1:] != fields[:-1], out=change[1:])
    starts = np.flatnonzero(change)
    e_docs = docs[starts]
    e_fields = fields[starts]
    tfs = np.diff(np.r_[starts, cf]).astype(np.uint64)
    # token deltas within each entry: plain diff, then restore absolute
    # value at entry starts (gap vs 0 == absolute).
    tok_d = np.empty(cf, dtype=np.uint64)
    tok_d[0] = tokens[0]
    np.subtract(tokens[1:], tokens[:-1], out=tok_d[1:])
    tok_d[starts] = tokens[starts]
    return PostingBlock(
        docs=varint_encode(delta_encode(e_docs)),
        fields=varint_encode(e_fields),
        tfs=varint_encode(tfs),
        positions=varint_encode(tok_d),
        first_doc=int(e_docs[0]),
        last_doc=int(e_docs[-1]),
        df=int(len(e_docs)),
        cf=int(cf),
        max_tf=int(tfs.max()),
    )


def decode_posting_block(docs: bytes, fields: bytes, tfs: bytes, positions: bytes):
    """Decode one block → (docs, fields, tokens) occurrence arrays plus
    the per-entry (e_docs, e_fields, e_tfs) arrays (for scoring without
    expanding positions)."""
    e_docs = delta_decode(varint_decode(docs))
    e_fields = varint_decode(fields)
    e_tfs = varint_decode(tfs)
    tok_d = varint_decode(positions)
    if len(tok_d) == 0:
        if int(e_tfs.sum()):
            # entries promise cf>0 occurrences but the positions payload
            # is empty: a lost/truncated buffer must not silently decode
            # as "no occurrences" (a short buffer already fails loudly)
            raise ValueError(
                "decode_posting_block: empty positions payload but entries carry cf>0"
            )
        e = np.empty(0, dtype=np.uint64)
        return e, e.copy(), e.copy(), e_docs, e_fields, e_tfs
    occ_docs, occ_fields, occ_tokens = _expand_occurrences(e_docs, e_fields, e_tfs, tok_d)
    return occ_docs, occ_fields, occ_tokens, e_docs, e_fields, e_tfs


def restart_prefix_sum(deltas: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Prefix sum of ``deltas`` that restarts with each run of
    ``counts[i]`` values (a run's first delta is absolute): doc ids from
    the doc gaps of consecutive blocks, token ids from the position
    deltas of consecutive entries.  Zero counts are empty runs; the
    counts must sum to ``len(deltas)``."""
    csum = np.cumsum(deltas, dtype=np.uint64)
    if len(counts) < 2:  # one run: the plain prefix sum
        return csum
    counts = np.asarray(counts, dtype=np.int64)
    counts = counts[counts > 0]
    starts = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    base = csum[starts] - deltas[starts]
    return csum - np.repeat(base, counts)


def _expand_occurrences(e_docs, e_fields, e_tfs, tok_d):
    """Per-entry arrays plus concatenated position deltas → occurrence
    arrays (docs, fields, tokens): the ONE copy of the expansion shared
    by every decoder (token ids restart per entry)."""
    reps = e_tfs.astype(np.int64)
    return np.repeat(e_docs, reps), np.repeat(e_fields, reps), restart_prefix_sum(tok_d, reps)


def decode_posting_columns(
    docs_bufs: list[bytes],
    fields_bufs: list[bytes],
    tfs_bufs: list[bytes],
    pos_bufs: list[bytes] | None,
    dfs: np.ndarray,
):
    """Decode MANY posting blocks of one term in O(1) varint passes.

    Buffers are concatenated and decoded once; block-boundary delta
    resets (doc gaps are absolute at each block start) are restored by
    a segmented prefix sum — so a term fragmented into hundreds of
    per-batch runs decodes as cheaply as one big block.  Blocks must be
    passed in (first_doc, block_id) order.

    Returns (e_docs, e_fields, e_tfs[, occ_docs, occ_fields, occ_tokens])
    — occurrence arrays only when ``pos_bufs`` is given.
    """
    dfs = np.asarray(dfs, dtype=np.int64)
    if (dfs == 0).any():
        # zero-df blocks contribute no entries but would index their
        # start past the end of the decoded arrays (IndexError on a
        # legitimate trailing empty block) — drop them up front
        keep = dfs > 0
        dfs = dfs[keep]
        if pos_bufs is not None:
            pos_bufs = [b for b, k in zip(pos_bufs, keep) if k]
    e_deltas = varint_decode(b"".join(docs_bufs))
    e_fields = varint_decode(b"".join(fields_bufs))
    e_tfs = varint_decode(b"".join(tfs_bufs))
    n_entries = len(e_deltas)
    if not len(dfs):
        if n_entries:
            # every df says 0 but the payloads decoded entries: corrupt
            # metadata must not silently discard data
            raise ValueError(
                "decode_posting_columns: payload entries present but every df is 0"
            )
        e = np.empty(0, dtype=np.uint64)
        if pos_bufs is None:
            return e, e.copy(), e.copy()
        return e, e.copy(), e.copy(), e.copy(), e.copy(), e.copy()
    e_docs = restart_prefix_sum(e_deltas, dfs)
    if pos_bufs is None:
        return e_docs, e_fields, e_tfs
    tok_d = varint_decode(b"".join(pos_bufs))
    occ_docs, occ_fields, occ_tokens = _expand_occurrences(e_docs, e_fields, e_tfs, tok_d)
    return e_docs, e_fields, e_tfs, occ_docs, occ_fields, occ_tokens


def format_posting_text(docs: np.ndarray, fields: np.ndarray, tokens: np.ndarray) -> str:
    """The reference's TEXT posting codec / conformance dump format:
    ``[d,f,t], [d,f,t], …`` (``PostingListWriter.cs``, `print` verb).
    Inverse of :func:`fulltextsearch_ray.occurrences.parse_posting_text`."""
    return ", ".join(
        f"[{d},{f},{t}]" for d, f, t in zip(docs.tolist(), fields.tolist(), tokens.tolist())
    )


class SkipList:
    """Seek-capable view of a decoded posting list — the reference's
    ``ISkipList.LowerBound(occurrence)`` contract
    (``IndexModels/ISkipList.cs``, real impl
    ``PostingListVarIntDeltaReader.cs:163-234``) over numpy arrays:
    binary search on the packed (doc, field, token) order."""

    def __init__(self, docs: np.ndarray, fields: np.ndarray, tokens: np.ndarray):
        self.docs = np.ascontiguousarray(docs, dtype=np.uint64)
        self.fields = np.ascontiguousarray(fields, dtype=np.uint64)
        self.tokens = np.ascontiguousarray(tokens, dtype=np.uint64)

    def lower_bound(self, doc: int, field: int = 0, token: int = 0) -> int:
        """Index of the first occurrence >= (doc, field, token); len if none."""
        lo = int(np.searchsorted(self.docs, np.uint64(doc), side="left"))
        if field == 0 and token == 0:
            return lo
        # refine within the equal-doc run by two more binary searches —
        # O(log run) even for a 50k-occurrence hot document (a Python
        # per-element walk here costs O(tf) interpreted steps per seek)
        hi = int(np.searchsorted(self.docs, np.uint64(doc), side="right"))
        if lo >= hi:
            return lo
        f0 = lo + int(np.searchsorted(self.fields[lo:hi], np.uint64(field), side="left"))
        f1 = lo + int(np.searchsorted(self.fields[lo:hi], np.uint64(field), side="right"))
        if f0 >= f1:
            return f0
        return f0 + int(np.searchsorted(self.tokens[f0:f1], np.uint64(token), side="left"))


def lower_bound_block(first_docs: np.ndarray, target_doc: int) -> int:
    """Index of the first block that may contain ``doc >= target`` —
    binary search over per-block first_doc metadata, mirroring the
    reference's block-bisection ``LowerBound``
    (``PostingListVarIntDeltaReader.cs:163-222``).  A target below the
    first block's first_doc answers block 0 (every doc there is
    already >= target), never -1.  side='left' so a target equal to a
    block's first_doc answers the PREVIOUS block: a document split
    across blocks (mid-entry/entry fallback in stages/invert.py) makes
    first_docs[i] == last_doc[i-1], and side='right' skipped the block
    holding the target's initial occurrences."""
    i = int(np.searchsorted(np.asarray(first_docs, dtype=np.uint64), np.uint64(target_doc), side="left")) - 1
    return max(i, 0)
