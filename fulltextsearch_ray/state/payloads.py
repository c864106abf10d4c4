"""Posting payload blobs: every term's encoded bytes at one address.

A postings parquet file keeps the per-block metadata columns (term,
bucket, block_id, first/last doc, df, cf, max_tf, n_docs); the four
payload columns of its posting rows live in one flat sibling file,
``<seg>/payloads/<stem>.bin``.  This is the reference's
``PostingListAddress`` model (PAPER.md §1.1): the catalog row of a
term carries ``(file, offset, bm25_len, len)`` and a lookup reads
exactly that byte range, with no parquet row-group decode.  The task
that writes a blob writes those catalog rows too, from the directory
:func:`write_blob` returns; nothing reads a blob back to address it.

Blob layout: one RECORD per term, in the parquet file's row order,
then a directory trailer.

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
is the whole record, for positional lookups.  The trailer lets whole-
file readers (compaction, the dump) locate every record without
walking the headers one by one.

The doc-stats sentinel rows (bucket = -1) keep their payloads inline in
the parquet columns; the payload columns of every blob-backed row are
null there.  Files written before blobs existed have no null payloads
and no blob; only ``compact_index`` reads them (whole files, through
:func:`read_postings_file`), to rewrite their segment into blobs.
"""

from __future__ import annotations

import os
import struct
import uuid
from typing import NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

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


def blob_path_for(parquet_path: str) -> str:
    """``<seg>/postings/<stem>.parquet`` → ``<seg>/payloads/<stem>.bin``."""
    seg = os.path.dirname(os.path.dirname(parquet_path))
    stem = os.path.splitext(os.path.basename(parquet_path))[0]
    return os.path.join(seg, PAYLOAD_DIR, stem + ".bin")


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


def _expand_fields(arr: np.ndarray, start: np.ndarray, length: np.ndarray, dfs: np.ndarray) -> pa.Array:
    """The fields payloads at ``arr[start : start + length]`` as a
    binary column, each empty one of a non-empty block read back as df
    bytes of 0x01."""
    elided = (length == 0) & (dfs > 0)
    out_len = np.where(elided, dfs, length)
    off = np.zeros(len(out_len) + 1, dtype=np.int64)
    np.cumsum(out_len, out=off[1:])
    rep = np.repeat(elided, out_len)
    src = np.repeat(start - off[:-1], out_len) + np.arange(off[-1])
    data = arr[np.where(rep, 0, src)]
    data[rep] = 1
    return pa.Array.from_buffers(
        pa.large_binary(), len(out_len), [None, pa.py_buffer(off), pa.py_buffer(data)]
    ).cast(pa.binary())


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


def attach_payloads(table: pa.Table, blob: str) -> pa.Table:
    """``table`` (all rows of one postings file, in file order) with
    the payload columns of its blob-backed rows filled from ``blob``.

    Rows whose ``docs`` is null are blob-backed; a table without any
    (a file written before blobs, or only sentinel rows) returns as is.
    The blob is cut into one zero-copy slice per header and per block
    payload, and each payload column is one Arrow ``take`` of those
    slices.  Every header is checked against the parquet rows."""
    need = table["docs"].is_null().to_numpy(zero_copy_only=False)
    if not need.any():
        return table
    sub = table.filter(pa.array(need))
    n = sub.num_rows
    starts, counts = _term_groups(sub["term"].combine_chunks())
    T = len(starts)
    with open(blob, "rb") as f:
        data = f.read()
    offsets, hdr_len, _bm25, rec_len = read_directory(blob, data)

    def bad(why):
        return ValueError(f"{blob}: {why}")

    if len(offsets) != T:
        raise bad(f"{len(offsets)} payload records for {T} terms")
    # gather the T headers' bytes (small) and decode them in one pass
    hdr_start = np.zeros(T, dtype=np.int64)
    np.cumsum(hdr_len[:-1], out=hdr_start[1:])
    take = np.repeat(offsets - hdr_start, hdr_len) + np.arange(int(hdr_len.sum()))
    hv, (row_v, scale) = _layout(starts, counts, 7)
    arr = np.frombuffer(data, dtype=np.uint8)
    try:
        vals = varint_decode(arr[take], count=T + 7 * n).astype(np.int64)
    except ValueError as e:
        raise bad(f"corrupt record headers: {e}") from None
    if not np.array_equal(vals[hv], counts):
        raise bad("record block counts disagree with the parquet rows")
    for f, c in enumerate(_HEADER_ROW):
        if not np.array_equal(vals[row_v + f * scale], sub[c].to_numpy().astype(np.int64)):
            raise bad(f"record headers disagree with the parquet {c} column")
    lens = [vals[row_v + (3 + f) * scale] for f in range(4)]
    per_term = hdr_len + np.add.reduceat(sum(lens), starts)
    if not np.array_equal(per_term, rec_len):
        bad_t = int(np.flatnonzero(per_term != rec_len)[0])
        raise bad(f"header lengths of term {sub['term'][int(starts[bad_t])].as_py()!r} "
                  f"cover {per_term[bad_t]} bytes, the record {rec_len[bad_t]}")

    hp, (row_p, pscale) = _layout(starts, counts, 4)
    piece_len = np.empty(T + 4 * n, dtype=np.int64)
    piece_len[hp] = hdr_len
    for f in range(4):
        piece_len[row_p + f * pscale] = lens[f]
    piece_off = np.zeros(len(piece_len) + 1, dtype=np.int64)
    np.cumsum(piece_len, out=piece_off[1:])
    # every payload piece must hold exactly its block's count of whole
    # varints (df entries; cf positions): count the terminator bytes.
    # An empty fields piece stands for df entries of field 1.
    ends = np.add.reduceat(arr[: piece_off[-1]] < 0x80, piece_off[:-1], dtype=np.int64)
    ends[piece_len == 0] = 0
    want = [sub[c].to_numpy().astype(np.int64) for c in ("df", "df", "df", "cf")]
    for f, c in enumerate(PAYLOAD_COLS):
        idx = row_p + f * pscale
        full = piece_len[idx] > 0
        wrong = (ends[idx] != want[f]) | (full & (arr[piece_off[idx + 1] - 1] >= 0x80))
        if c == "fields":
            wrong &= full
        if wrong.any():
            r = int(np.flatnonzero(wrong)[0])
            raise bad(f"{c} payload of term {sub['term'][r].as_py()!r} disagrees with its "
                      f"header lengths ({ends[idx][r]} values for {want[f][r]})")
    pieces = pa.Array.from_buffers(
        pa.large_binary(), len(piece_len), [None, pa.py_buffer(piece_off), pa.py_buffer(data)]
    )
    # row index of each blob-backed row in the full table; the other
    # (sentinel) rows keep their inline values
    src = np.arange(table.num_rows)
    src[need] = table.num_rows + np.arange(n)
    for f, c in enumerate(PAYLOAD_COLS):
        idx = row_p + f * pscale
        if c == "fields":
            col = _expand_fields(arr, piece_off[idx], piece_len[idx], want[0])
        else:
            col = pieces.take(pa.array(idx)).cast(pa.binary())
        if n < table.num_rows:
            col = pa.concat_arrays([table[c].combine_chunks(), col]).take(pa.array(src))
        table = table.set_column(table.schema.get_field_index(c), c, col)
    return table


def read_postings_file(path: str) -> pa.Table:
    """Every row of one postings parquet file with its payload columns
    — the one whole-row read (compaction, the dump, digests)."""
    return attach_payloads(pq.read_table(path), blob_path_for(path))
