"""Posting payload blobs: every term's encoded bytes at one address.

A segment is its catalog, its payload blobs and its docs table.  The
task that merges a sort partition writes one blob of the partition's
posting rows, ``<seg>/payloads/<stem>.bin``, and the partition's
catalog rows next to it.  This is the reference's ``PostingListAddress``
model (PAPER.md §1.1): the catalog row of a term carries ``(file,
offset, bm25_len, len)`` and a lookup reads exactly that byte range.
The catalog rows come from the directory :func:`write_blob` returns;
nothing reads a blob back to address it.

Blob layout: one RECORD per term, in term order, then a directory
trailer.

    record    = header | docs | tfs | fields | positions
    header    = varints [B, df×B, first_doc×B, last_doc×B,
                         docs_len×B, tfs_len×B, fields_len×B, positions_len×B]
    region    = the term's B per-block payloads of one column, concatenated
                (a block's ``fields`` payload is stored empty when every
                entry is field 1 — every block of a single-field index —
                and read back as df bytes of 0x01)
    trailer   = varints [record_len×T, header_len×T, bm25_len×T]
                | u64 trailer varint bytes | u64 T | MAGIC

``bm25_len`` covers header + docs + tfs, everything BM25 scoring (and
its block-max skipping, via the header's first/last doc) needs; ``len``
is the whole record, for positional lookups.

Whole posting rows (compaction, the dump) come from catalog rows plus
the blobs they address (:func:`read_blob_rows`).  Segments written
before blobs kept their payloads inline in a postings parquet file and
have catalogs without addresses (:func:`predates_blobs`); only
``compact_index`` reads them, to rewrite their segment into blobs.
"""

from __future__ import annotations

import os
import struct
import uuid
from typing import NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..codecs import varint_decode, varint_encode, varint_encode_offsets

PAYLOAD_DIR = "payloads"
# blob order of the payload columns: a BM25 read stops after tfs
PAYLOAD_COLS = ("docs", "tfs", "fields", "positions")
ADDRESS_COLS = ["file", "offset", "bm25_len", "len"]
MAGIC = b"FTSBLOB1"
_TRAILER = struct.Struct("<QQ8s")
# per-row header fields, in header order after the block count
_HEADER_ROW = ("df", "first_doc", "last_doc")


class TermBlocks(NamedTuple):
    """One term's posting blocks from one source, in decode order
    ((first_doc, block_id)): per-block metadata arrays and per-block
    payload buffers (``fields`` / ``positions`` are None when the read
    stopped before them).  ``source`` names the file for errors."""

    source: str
    dfs: np.ndarray
    firsts: np.ndarray
    lasts: np.ndarray
    docs: list
    tfs: list
    fields: "list | None"
    positions: "list | None"

    def select(self, keep: np.ndarray) -> "TermBlocks":
        """The blocks where ``keep`` is True."""
        idx = np.flatnonzero(keep)

        def pick(bufs):
            return None if bufs is None else [bufs[i] for i in idx]

        return TermBlocks(
            self.source, self.dfs[idx], self.firsts[idx], self.lasts[idx],
            pick(self.docs), pick(self.tfs), pick(self.fields), pick(self.positions),
        )


def predates_blobs(catalog_columns) -> bool:
    """Whether a segment whose catalog has ``catalog_columns`` was
    written before payload blobs: its catalog rows carry no address.
    A searcher refuses such a segment; ``compact_index`` rewrites it."""
    return not set(ADDRESS_COLS) <= set(catalog_columns)


def _term_groups(terms: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """(start row, block count) of each run of equal terms."""
    n = len(terms)
    change = np.ones(n, dtype=bool)
    if n > 1:
        change[1:] = pc.not_equal(terms.slice(1), terms.slice(0, n - 1)).to_numpy(
            zero_copy_only=False
        )
    starts = np.flatnonzero(change)
    return starts, np.diff(np.r_[starts, n])


def _layout(starts: np.ndarray, counts: np.ndarray, width: int):
    """Index arithmetic of per-term records that hold one leading item
    and then ``width`` per-block fields, field-major (all B values of
    field 0, then field 1, ...).  Returns the index of every term's
    leading item and, per row, ``(base, scale)`` such that row r's
    field f sits at ``base[r] + f * scale[r]``."""
    n = int(counts.sum())
    g = np.repeat(np.arange(len(starts)), counts)
    lead = np.arange(len(starts)) + width * starts
    return lead, (lead[g] + 1 + np.arange(n) - starts[g], counts[g])


def _flat(col: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """(offsets rebased to 0, bytes) of a binary column's values."""
    col = col.cast(pa.large_binary())
    if not len(col):
        return np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.uint8)
    offs = np.frombuffer(col.buffers()[1], dtype=np.int64)[col.offset : col.offset + len(col) + 1]
    data = col.buffers()[2]
    if data is None:
        return offs - offs[0], np.empty(0, dtype=np.uint8)
    return offs - offs[0], np.frombuffer(data, dtype=np.uint8)[offs[0] : offs[-1]]


def replace_where(col: pa.Array, mask: np.ndarray, value) -> pa.Array:
    """``col`` with its values where ``mask`` holds replaced by
    ``value``, as one ``take`` (``pc.if_else`` returns wrong values for
    sliced binary arrays in this pyarrow)."""
    n = len(col)
    return pa.concat_arrays([col, pa.array([value], col.type)]).take(
        pa.array(np.where(mask, n, np.arange(n)))
    )


def _field_one_blocks(fields: pa.Array, dfs: np.ndarray) -> np.ndarray:
    """Per block: is its fields payload df bytes of 0x01 (every entry
    field 1)?  Those payloads are stored empty in the blob."""
    offs, buf = _flat(fields)
    lens = np.diff(offs)
    ones = np.zeros(len(buf) + 1, dtype=np.int64)
    np.cumsum(buf == 1, out=ones[1:])
    dfs = np.asarray(dfs, dtype=np.int64)
    return (dfs > 0) & (lens == dfs) & (ones[offs[1:]] - ones[offs[:-1]] == lens)


def max_field_id(fields: pa.Array) -> int:
    """Largest field id (1-based varints) in a fields payload column;
    0 when it holds none.  Ids below 128 are single bytes, so the
    largest byte is the answer unless a varint runs longer."""
    _offs, buf = _flat(fields)
    if not len(buf):
        return 0
    m = int(buf.max())
    return m if m < 0x80 else int(varint_decode(buf).max())


def _slices(data: pa.Buffer, start: np.ndarray, length: np.ndarray) -> pa.Array:
    """Binary column whose value i is ``data[start[i] : start[i] +
    length[i]]``: one Arrow ``take`` over a view of ``data`` that
    alternates the slices, in (start, end) order, with the gaps between
    them.  Raises ValueError when two slices overlap."""
    order = np.lexsort((start + length, start))
    bounds = np.empty(2 * len(order), dtype=np.int64)
    bounds[0::2], bounds[1::2] = start[order], start[order] + length[order]
    if (np.diff(bounds) < 0).any():
        raise ValueError("payload regions overlap")
    view = pa.Array.from_buffers(
        pa.large_binary(), len(bounds) - 1, [None, pa.py_buffer(bounds), data]
    )
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = 2 * np.arange(len(order))
    return view.take(pa.array(rank)).cast(pa.binary())


def _field_ones(fields: pa.Array, elided: np.ndarray, dfs: np.ndarray) -> pa.Array:
    """``fields`` with each elided (empty) payload read back as df bytes
    of 0x01."""
    off = np.zeros(int(elided.sum()) + 1, dtype=np.int64)
    np.cumsum(dfs[elided], out=off[1:])
    ones = pa.Array.from_buffers(
        pa.large_binary(), len(off) - 1,
        [None, pa.py_buffer(off), pa.py_buffer(np.ones(off[-1], dtype=np.uint8))],
    ).cast(pa.binary())
    idx = np.arange(len(fields))
    idx[elided] = len(fields) + np.arange(len(off) - 1)
    return pa.concat_arrays([fields, ones]).take(pa.array(idx))


def atomic_write(path: str, write) -> None:
    """Write through a private temp name, then rename into place: a
    retried task overwrites its own file instead of leaving two."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.tmp-{uuid.uuid4().hex}"
    try:
        write(tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_blob(path: str, rows: pa.Table):
    """Write the payload blob of term-sorted posting ``rows`` (no
    sentinel rows) and return its directory, as :func:`read_directory`
    would read it back.  Vectorized: the headers are one varint encode,
    and the records are one Arrow ``take`` over [headers, docs, tfs,
    fields, positions] in blob order, so the blob is that array's data
    buffer."""
    n = rows.num_rows
    starts, counts = _term_groups(rows["term"].combine_chunks())
    T = len(starts)
    cols = [rows[c].combine_chunks() for c in PAYLOAD_COLS]
    fi = PAYLOAD_COLS.index("fields")
    ones = _field_one_blocks(cols[fi], rows["df"].to_numpy())
    if ones.any():
        cols[fi] = replace_where(cols[fi], ones, b"")
    lens = [pc.binary_length(c).to_numpy(zero_copy_only=False).astype(np.uint64) for c in cols]

    # headers: [B, df.., first.., last.., len per column..] per term
    hv, (row_v, scale) = _layout(starts, counts, 7)
    vals = np.empty(T + 7 * n, dtype=np.uint64)
    vals[hv] = counts
    per_row = [rows[c].to_numpy() for c in _HEADER_ROW] + lens
    for f, a in enumerate(per_row):
        vals[row_v + f * scale] = np.asarray(a, dtype=np.uint64)
    hbytes, hends = varint_encode_offsets(vals)
    hdr_end = hends[hv + 7 * counts]
    hdr_off = np.r_[np.int64(0), hdr_end].astype(np.int64)
    headers = pa.Array.from_buffers(
        pa.large_binary(), T, [None, pa.py_buffer(hdr_off), pa.py_buffer(hbytes)]
    )

    hp, (row_p, pscale) = _layout(starts, counts, 4)
    order = np.empty(T + 4 * n, dtype=np.int64)
    order[hp] = np.arange(T)
    for f in range(4):
        order[row_p + f * pscale] = T + f * n + np.arange(n)
    pieces = pa.concat_arrays([headers] + [c.cast(pa.large_binary()) for c in cols]).take(
        pa.array(order)
    )
    offs = np.frombuffer(pieces.buffers()[1], dtype=np.int64)[
        pieces.offset : pieces.offset + len(pieces) + 1
    ]
    rec_start = offs[hp]
    rec_len = np.r_[rec_start[1:], offs[-1]] - rec_start
    bm25_len = offs[hp + 1 + 2 * counts] - rec_start
    hdr_len = np.diff(hdr_off)
    trailer = varint_encode(np.concatenate([rec_len, hdr_len, bm25_len]).astype(np.uint64))
    data = memoryview(pieces.buffers()[2])[int(offs[0]) : int(offs[-1])]

    def write(tmp):
        with open(tmp, "wb") as f:
            f.write(data)
            f.write(trailer)
            f.write(_TRAILER.pack(len(trailer), T, MAGIC))

    atomic_write(path, write)
    return rec_start - offs[0], hdr_len, bm25_len, rec_len


def read_directory(path: str, blob: "bytes | None" = None):
    """(offset, header_len, bm25_len, len) int64 arrays, one entry per
    record, from a blob's trailer (``blob`` = the whole file, if already
    read).  Raises ValueError on a missing or inconsistent trailer."""
    if blob is not None:
        return _directory(path, len(blob), lambda off, n: blob[off : off + n])
    with open(path, "rb") as f:
        fd = f.fileno()
        return _directory(path, os.fstat(fd).st_size, lambda off, n: os.pread(fd, n, off))


def _directory(path: str, size: int, read):
    if size < _TRAILER.size:
        raise ValueError(f"{path}: payload blob truncated ({size} bytes)")
    nbytes, T, magic = _TRAILER.unpack(bytes(read(size - _TRAILER.size, _TRAILER.size)))
    if magic != MAGIC or nbytes > size - _TRAILER.size:
        raise ValueError(f"{path}: payload blob truncated or not a blob (bad trailer)")
    dir_bytes = read(size - _TRAILER.size - nbytes, nbytes)
    try:
        v = varint_decode(dir_bytes, count=3 * T).astype(np.int64)
    except ValueError as e:
        raise ValueError(f"{path}: corrupt payload blob directory: {e}") from None
    lens, hdr, bm25 = v[:T], v[T : 2 * T], v[2 * T :]
    offsets = np.zeros(T, dtype=np.int64)
    np.cumsum(lens[:-1], out=offsets[1:])
    if T and offsets[-1] + lens[-1] != size - _TRAILER.size - nbytes:
        raise ValueError(f"{path}: payload blob records do not fill the file")
    return offsets, hdr, bm25, lens


def parse_record(buf: bytes, with_rest: bool, source: str, term: str) -> TermBlocks:
    """One term record read by address → :class:`TermBlocks` of
    per-block memoryviews.  ``buf`` is the ``bm25_len`` prefix
    (``with_rest=False``: docs and tfs only) or the whole record.  The
    header must account for every byte of ``buf``."""

    def bad(why):
        return ValueError(f"{source}: corrupt payload record of term {term!r}: {why}")

    arr = np.frombuffer(buf, dtype=np.uint8)
    regions = 4 if with_rest else 2
    try:
        # the block count is a one-byte varint below 128 blocks
        B = int(arr[0])
        if B >= 0x80:
            B = int(varint_decode(arr[: 1 + int(np.flatnonzero(arr[:10] < 0x80)[0])])[0])
        n_hdr = 1 + 7 * B
        ends = np.flatnonzero(arr[: 10 * n_hdr] < 0x80)
        if len(ends) < n_hdr:
            raise ValueError("truncated header")
        hdr_end = int(ends[n_hdr - 1]) + 1
        h = varint_decode(arr[:hdr_end], count=n_hdr).astype(np.int64)
    except (ValueError, IndexError) as e:
        raise bad(e) from None
    dfs, firsts, lasts = h[1 : 1 + B], h[1 + B : 1 + 2 * B], h[1 + 2 * B : 1 + 3 * B]
    lens = h[1 + 3 * B : 1 + (3 + regions) * B]
    covered = hdr_end + int(lens.sum())
    if covered != len(buf):
        raise bad(f"header lengths cover {covered} bytes, the address {len(buf)}")
    mv = memoryview(buf)
    cuts = (hdr_end + np.cumsum(lens)).tolist()
    cuts.insert(0, hdr_end)
    out = [[mv[cuts[i] : cuts[i + 1]] for i in range(f * B, (f + 1) * B)] for f in range(regions)]
    fields = None
    if with_rest:
        fields = [b if len(b) or not d else b"\x01" * d for b, d in zip(out[2], dfs.tolist())]
    return TermBlocks(
        source, dfs, firsts.astype(np.uint64), lasts.astype(np.uint64), out[0], out[1],
        fields, out[3] if with_rest else None,
    )


def read_blob_rows(cat: pa.Table, seg_path: str) -> pa.Table:
    """Whole posting rows (the in-memory run schema, ``bucket`` 0) of
    the terms of ``cat``, catalog rows of the segment at ``seg_path``,
    read from the blobs their addresses name — the one whole-row read
    (compaction, the dump).  Rows come out in catalog order, each
    term's blocks in record order.

    A record's header gives its blocks' df, first_doc and last_doc,
    and block_id is a block's position in the record.  cf (Σ tfs),
    max_tf and n_docs (entries that open a new doc) are recomputed from
    one decode of the docs and tfs regions.  A ValueError names the
    blob and term whose record is malformed or disagrees with its
    catalog row."""
    from .index import POSTINGS_SCHEMA

    T = cat.num_rows
    if not T:
        return POSTINGS_SCHEMA.empty_table()
    files = cat["file"].combine_chunks().dictionary_encode()
    paths = [os.path.join(seg_path, f) for f in files.dictionary.to_pylist()]
    fidx = np.asarray(files.indices.to_numpy(zero_copy_only=False), dtype=np.int64)
    blobs = []
    for p in paths:
        with open(p, "rb") as f:
            blobs.append(f.read())
    sizes = np.array([len(b) for b in blobs], dtype=np.int64)
    data = pa.py_buffer(blobs[0] if len(blobs) == 1 else b"".join(blobs))
    arr = np.frombuffer(data, dtype=np.uint8)
    terms = cat["term"].combine_chunks()

    def col(c):
        return np.asarray(cat[c].to_numpy(zero_copy_only=False)).astype(np.int64)

    def check(ok, why, rec=None):
        """Raise for the first False in ``ok`` (per record, or per block
        with ``rec`` its record); ``why(i)`` describes entry i."""
        if not ok.all():
            i = int(np.flatnonzero(~ok)[0])
            r = i if rec is None else int(rec[i])
            raise ValueError(f"{paths[fidx[r]]}: payload record of term "
                             f"{terms[r].as_py()!r}: {why(i)}")

    off, rec_len, B = col("offset"), col("len"), col("n_blocks")
    check((B >= 1) & (off >= 0) & (off + rec_len <= sizes[fidx]),
          lambda r: f"address [{off[r]}, {off[r] + rec_len[r]}) with {B[r]} blocks "
                    f"does not fit the {sizes[fidx[r]]}-byte blob")
    off = off + (np.cumsum(sizes) - sizes)[fidx]
    # a header is 1 + 7B varints: its end is the (7B)-th terminator
    # byte after the record start
    ends = np.flatnonzero(arr < 0x80)
    last = np.searchsorted(ends, off) + 7 * B
    check(last < len(ends), lambda r: "truncated header")
    hdr_len = ends[last] + 1 - off
    check(hdr_len <= rec_len, lambda r: "truncated header")
    hdr_start = np.cumsum(hdr_len) - hdr_len
    n = int(B.sum())
    starts = np.cumsum(B) - B  # first block row of each term
    hv, (row_v, scale) = _layout(starts, B, 7)
    vals = varint_decode(
        arr[np.repeat(off - hdr_start, hdr_len) + np.arange(int(hdr_len.sum()))], count=T + 7 * n
    ).astype(np.int64)
    check(vals[hv] == B, lambda r: f"header holds {vals[hv][r]} blocks, its catalog row {B[r]}")
    dfs, firsts, lasts, *lens = (vals[row_v + f * scale] for f in range(7))
    covered = hdr_len + np.add.reduceat(sum(lens), starts)
    check(covered == rec_len,
          lambda r: f"header lengths cover {covered[r]} bytes, the address {rec_len[r]}")

    # each region's block payloads follow one another from the region start
    g = np.repeat(np.arange(T), B)
    piece_start, region = [], off + hdr_len
    for ln in lens:
        before = np.cumsum(ln) - ln
        piece_start.append(region[g] + before - before[starts][g])
        region = region + np.add.reduceat(ln, starts)

    def whole_varints(f):
        """Values in each block's payload of region ``f``, -1 where the
        payload ends mid-varint."""
        s, ln = piece_start[f], lens[f]
        cnt = np.searchsorted(ends, s + ln) - np.searchsorted(ends, s)
        return np.where((ln > 0) & (arr[np.maximum(s + ln - 1, 0)] >= 0x80), -1, cnt)

    elided = lens[2] == 0
    for f, c in ((0, "docs"), (1, "tfs"), (2, "fields")):
        got = whole_varints(f)
        check((dfs >= 1) & ((got == dfs) | ((f == 2) & elided)),
              lambda i: f"{c} payload of block {i - starts[g[i]]} holds {got[i]} values "
                        f"for df {dfs[i]}", g)
    try:
        docs, tfs, fields, positions = (_slices(data, piece_start[f], lens[f]) for f in range(4))
    except ValueError as e:
        raise ValueError(f"{', '.join(paths)}: {e}") from None
    fields = _field_ones(fields, elided, dfs)
    bstart = np.cumsum(dfs) - dfs
    tf = varint_decode(_flat(tfs)[1]).astype(np.int64)
    cf, max_tf = np.add.reduceat(tf, bstart), np.maximum.reduceat(tf, bstart)
    opens = varint_decode(_flat(docs)[1]) != 0  # a doc gap of 0 continues a doc
    opens[bstart] = True
    n_docs = np.add.reduceat(opens, bstart, dtype=np.int64)
    got = whole_varints(3)
    check(got == cf, lambda i: f"positions payload of block {i - starts[g[i]]} holds "
                               f"{got[i]} values for cf {cf[i]}", g)
    for c, blocks, agg in (
        ("df", dfs, np.add), ("cf", cf, np.add), ("max_tf", max_tf, np.maximum),
        ("df_docs", n_docs, np.add), ("first_doc", firsts, np.minimum),
        ("last_doc", lasts, np.maximum),
    ):
        per_term, want = agg.reduceat(blocks, starts), col(c)
        check(per_term == want,
              lambda r: f"its blocks give {c} {per_term[r]}, its catalog row {want[r]}")
    return pa.table({
        "term": terms.take(pa.array(g)),
        "bucket": pa.array(np.zeros(n, dtype=np.int32)),
        "block_id": pa.array((np.arange(n) - starts[g]).astype(np.int32)),
        "first_doc": pa.array(firsts.astype(np.uint64)),
        "last_doc": pa.array(lasts.astype(np.uint64)),
        "df": pa.array(dfs), "cf": pa.array(cf), "max_tf": pa.array(max_tf),
        "n_docs": pa.array(n_docs),
        "docs": docs, "fields": fields, "tfs": tfs, "positions": positions,
    })
