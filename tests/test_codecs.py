"""Codec round-trip tests incl. the reference benchmark protocol
(N=10,000 occurrences ``(1,1,1000+i)``, linear verify + LowerBound probes
— ``ConsoleUtil/Program.cs:122-206``)."""

import numpy as np
import pytest

from fulltextsearch_ray.codecs import (
    decode_posting_block,
    delta_decode,
    delta_encode,
    encode_posting_block,
    lower_bound_block,
    varint_decode,
    varint_encode,
)


@pytest.mark.parametrize(
    "values",
    [
        [],
        [0],
        [1, 2, 3],
        [127, 128, 129, 16383, 16384],
        [2**63, 2**64 - 1, 0, 1],
        list(range(1, 1000)),
    ],
)
def test_varint_roundtrip(values):
    v = np.array(values, dtype=np.uint64)
    assert varint_decode(varint_encode(v)).tolist() == values


def test_varint_random_roundtrip():
    rng = np.random.default_rng(42)
    for _ in range(20):
        bits = rng.integers(1, 64)
        v = rng.integers(0, 2**int(bits), size=1000, dtype=np.uint64)
        out = varint_decode(varint_encode(v))
        assert np.array_equal(out, v)


def test_varint_single_byte_compactness():
    v = np.arange(0, 128, dtype=np.uint64)
    assert len(varint_encode(v)) == 128


def test_delta_roundtrip():
    v = np.array([5, 5, 7, 100, 100, 2**40], dtype=np.uint64)
    assert np.array_equal(delta_decode(delta_encode(v)), v)


def _make_occurrences():
    # sorted (doc, field, token) triples with multi-field docs
    triples = [
        (1, 1, 1), (1, 1, 5), (1, 1, 10), (1, 2, 1), (1, 3, 5),
        (2, 1, 2), (2, 1, 3), (50, 10, 81), (143787543, 79815, 2124),
    ]
    a = np.array(triples, dtype=np.uint64)
    return a[:, 0], a[:, 1], a[:, 2]


def test_posting_block_roundtrip():
    d, f, t = _make_occurrences()
    blk = encode_posting_block(d, f, t)
    assert blk.first_doc == 1 and blk.last_doc == 143787543
    assert blk.df == 6  # distinct (doc, field) pairs
    assert blk.cf == 9
    assert blk.max_tf == 3
    dd, ff, tt, e_docs, e_fields, e_tfs = decode_posting_block(
        blk.docs, blk.fields, blk.tfs, blk.positions
    )
    assert np.array_equal(dd, d)
    assert np.array_equal(ff, f)
    assert np.array_equal(tt, t)
    assert e_docs.tolist() == [1, 1, 1, 2, 50, 143787543]
    assert e_tfs.tolist() == [3, 1, 1, 2, 1, 1]


def test_posting_block_empty():
    e = np.empty(0, dtype=np.uint64)
    blk = encode_posting_block(e, e, e)
    assert blk.cf == 0
    out = decode_posting_block(blk.docs, blk.fields, blk.tfs, blk.positions)
    assert all(len(x) == 0 for x in out)


def test_reference_benchmark_protocol():
    # N=10,000 occurrences (1,1,1000+i) — write, linear verify, seek probes
    n = 10_000
    d = np.ones(n, dtype=np.uint64)
    f = np.ones(n, dtype=np.uint64)
    t = np.arange(1000, 1000 + n, dtype=np.uint64)
    blk = encode_posting_block(d, f, t)
    assert blk.cf == n and blk.df == 1
    dd, ff, tt, *_ = decode_posting_block(blk.docs, blk.fields, blk.tfs, blk.positions)
    assert np.array_equal(tt, t) and np.array_equal(dd, d)
    # compression sanity: deltas are all 1 → ~1 byte/occurrence
    assert len(blk.positions) < n + 10


def test_lower_bound_block_metadata():
    first_docs = np.array([1, 100, 200, 300], dtype=np.uint64)
    assert lower_bound_block(first_docs, 1) == 0
    assert lower_bound_block(first_docs, 150) == 1
    # a target EQUAL to a block's first_doc answers the previous block:
    # a doc split across blocks (entry/mid-entry fallback) makes
    # first_docs[i] == last_doc[i-1], and skipping block i-1 would drop
    # the target's initial occurrences
    assert lower_bound_block(first_docs, 200) == 1
    assert lower_bound_block(first_docs, 201) == 2
    assert lower_bound_block(first_docs, 9999) == 3
    # duplicate first_docs (one doc spanning 3+ blocks): answer the
    # FIRST of the run
    dup = np.array([100, 100, 100, 500], dtype=np.uint64)
    assert lower_bound_block(dup, 100) == 0


def test_varint_decode_rejects_truncated_stream():
    import pytest

    from fulltextsearch_ray.codecs import varint_decode

    with pytest.raises(ValueError, match="truncated"):
        varint_decode(b"\x80")
    with pytest.raises(ValueError, match="expected"):
        varint_decode(b"\x01\x02", count=3)


def test_lower_bound_block_below_first():
    import numpy as np

    from fulltextsearch_ray.codecs import lower_bound_block

    fd = np.array([10, 100], dtype=np.uint64)
    assert lower_bound_block(fd, 5) == 0      # was -1 (wrapped to last block)
    assert lower_bound_block(fd, 10) == 0
    assert lower_bound_block(fd, 99) == 0
    assert lower_bound_block(fd, 100) == 0    # boundary-split safe (side='left')
    assert lower_bound_block(fd, 101) == 1
    assert lower_bound_block(fd, 10**9) == 1


def test_decode_posting_columns_zero_df_block():
    import numpy as np

    from fulltextsearch_ray.codecs import decode_posting_columns, encode_posting_block

    full = encode_posting_block(
        np.array([1, 2], dtype=np.uint64),
        np.array([1, 1], dtype=np.uint64),
        np.array([1, 1], dtype=np.uint64),
    )
    empty = encode_posting_block(
        np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.uint64)
    )
    e_docs, _f, _t = decode_posting_columns(
        [full.docs, empty.docs], [full.fields, empty.fields],
        [full.tfs, empty.tfs], None, np.array([2, 0]),
    )
    assert e_docs.tolist() == [1, 2]
    out = decode_posting_columns([empty.docs], [empty.fields], [empty.tfs], None, np.array([0]))
    assert len(out[0]) == 0


def test_codec_corrupt_inputs_fail_loudly():
    """Empty-but-expected payloads must raise at the codec boundary,
    not decode as 'no data'."""
    from fulltextsearch_ray.codecs import decode_posting_columns

    with pytest.raises(ValueError, match="expected 5"):
        varint_decode(b"", count=5)
    # a block whose positions payload was lost entirely
    blk = encode_posting_block(
        np.array([1, 2], dtype=np.uint64),
        np.array([1, 1], dtype=np.uint64),
        np.array([1, 1], dtype=np.uint64),
    )
    with pytest.raises(ValueError, match="positions payload"):
        decode_posting_block(blk.docs, blk.fields, blk.tfs, b"")
    # all-zero dfs with non-empty payloads
    with pytest.raises(ValueError, match="every df is 0"):
        decode_posting_columns([blk.docs], [blk.fields], [blk.tfs], None, np.array([0]))


def test_varint_decode_rejects_overlong_and_overflow():
    """Corrupt over-long varints must raise, not wrap shifts mod 64."""
    import pytest

    from fulltextsearch_ray.codecs import varint_decode

    # 11-byte varint (shift would reach 70 and wrap silently)
    with pytest.raises(ValueError, match="longer than 10 bytes"):
        varint_decode(bytes([0x80] * 10 + [0x01]))
    # 10-byte varint whose final byte carries bits above bit 0
    with pytest.raises(ValueError, match="overflows uint64"):
        varint_decode(bytes([0x80] * 9 + [0x02]))
    # the legitimate extremes still decode
    from fulltextsearch_ray.codecs import varint_encode
    import numpy as np

    for v in (0, 1, 2**63, 2**64 - 1):
        got = varint_decode(varint_encode(np.array([v], dtype=np.uint64)))
        assert got.tolist() == [v]


def test_skiplist_lower_bound_matches_reference_walk():
    """Vectorized (field, token) refinement == the elementwise walk,
    randomized, including a 5k-occurrence hot document."""
    import random

    import numpy as np

    from fulltextsearch_ray.codecs import SkipList

    rng = random.Random(3)
    occ = sorted(
        {
            (rng.randint(1, 8), rng.randint(0, 2), rng.randint(1, 30))
            for _ in range(400)
        }
        | {(5, 1, t) for t in range(1, 5001)}  # hot doc run
    )
    docs, fields, tokens = (np.array(x, dtype=np.uint64) for x in zip(*occ))
    sl = SkipList(docs, fields, tokens)

    def walk(doc, field, token):
        i = int(np.searchsorted(docs, np.uint64(doc), side="left"))
        n = len(docs)
        while i < n and docs[i] == doc and (
            fields[i] < field or (fields[i] == field and tokens[i] < token)
        ):
            i += 1
        return i

    probes = [(rng.randint(0, 9), rng.randint(0, 3), rng.randint(0, 5002)) for _ in range(300)]
    probes += [(5, 1, 4999), (5, 1, 5001), (5, 2, 0), (99, 0, 0), (0, 0, 0)]
    for p in probes:
        assert sl.lower_bound(*p) == walk(*p), p
