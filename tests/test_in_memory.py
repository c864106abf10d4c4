"""In-memory index variant (reference InMemoryIndex.cs): identical
query results to the persistent index over the same corpus, with no
segment directory on disk.  The in-memory index is the partition commit
held in memory (a blob, a catalog and a docs table per term partition)
under a plain IndexSearcher, so a lookup is one ``read_range`` of a
blob and one ``decode_record``, with the disk reader's counters and its
corrupt-record errors."""

import os

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from fulltextsearch_ray.pipelines.build import build_index
from fulltextsearch_ray.pipelines.memory import build_in_memory
from fulltextsearch_ray.pipelines.query import IndexSearcher
from fulltextsearch_ray.sources.corpus import write_synth_corpus

QUERIES = [
    "WORD(index0)",
    "OR(WORD(index0),WORD(cache1))",
    "AND(WORD(def),WORD(class))",
    "SEQ(WORD(def),WORD(class))",
    "WILD(ind*)",
    "EDIT(cache1,1)",
]


@pytest.fixture(scope="module")
def both_indexes(ray_session, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("memcorpus"))
    write_synth_corpus(d, 150, rows_per_file=50)
    idx = str(tmp_path_factory.mktemp("memidx"))
    build_index(d, idx, text_col="content", overwrite=True)
    mem = build_in_memory(d, text_col="content")
    return IndexSearcher(idx), mem


def test_in_memory_path_reads_files_in_parallel(ray_session, tmp_path, monkeypatch):
    """``build_in_memory`` over a parquet path takes the disk build's
    fused read + invert, several file tasks wide: an 8-file corpus hands
    the term shuffle more than one run block, and the index answers as
    the disk build does."""
    from fulltextsearch_ray.functions import common

    d = str(tmp_path / "corpus")
    write_synth_corpus(d, 800, rows_per_file=100)
    blocks = []
    gather = common._gather

    def counting(ds, budget):
        got = gather(ds, budget)
        blocks.append(len(got[0]))
        return got

    monkeypatch.setattr(common, "_gather", counting)
    mem = build_in_memory(d, text_col="content")
    assert blocks and blocks[0] >= 2
    idx = str(tmp_path / "idx")
    build_index(d, idx, text_col="content")
    disk = IndexSearcher(idx)
    for q in QUERIES:
        assert mem.search_to_string(q) == disk.search_to_string(q), q
    for q in ["index builder", "def class return"]:
        assert mem.bm25_topk(q, k=10).equals(disk.bm25_topk(q, k=10)), q


def test_in_memory_matches_persistent_search(both_indexes):
    disk, mem = both_indexes
    for q in QUERIES:
        assert mem.search_to_string(q) == disk.search_to_string(q), q


def test_in_memory_matches_persistent_bm25(both_indexes):
    disk, mem = both_indexes
    assert mem.num_docs == disk.num_docs
    assert mem.avgdl == disk.avgdl
    for q in ["index builder", "def class return", "posting merge block"]:
        assert mem.bm25_topk(q, k=10).equals(disk.bm25_topk(q, k=10)), q
        assert mem.bm25_topk_pruned(
            [t for t in q.split()], k=10
        ).equals(disk.bm25_topk_pruned([t for t in q.split()], k=10)), q


def test_in_memory_lookup_and_stats(both_indexes):
    disk, mem = both_indexes
    assert mem.lookup("WILD(ca*)") == disk.lookup("WILD(ca*)")
    for t in ["def", "cache1", "absent_term"]:
        assert mem.term_stats(t) == disk.term_stats(t)


def test_in_memory_writes_nothing(ray_session, tmp_path):
    import ray.data

    tbl = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(["apple banana", "banana cherry", "apple cherry date"], pa.string()),
        }
    )
    before = set(os.listdir(str(tmp_path)))
    mem = build_in_memory(ray.data.from_arrow(tbl), text_col="text", doc_id_col="doc_id")
    assert mem.search_to_string("WORD(banana)") == "{[1,1,2]}, {[2,1,1]}"
    assert set(os.listdir(str(tmp_path))) == before
    assert mem.index_dir is None


def test_in_memory_docs_without_terms(ray_session):
    """Docs whose text holds no term give an index of docs and no term
    (no partition has a blob or catalog rows)."""
    tbl = pa.table({"doc_id": pa.array([1, 2], pa.int64()), "text": pa.array(["", " "])})
    mem = build_in_memory(ray.data.from_arrow(tbl), text_col="text", doc_id_col="doc_id")
    assert (mem.num_docs, mem.avgdl, mem.meta.next_doc_id) == (2, 0.0, 3)
    assert mem.posting_reader._blobs == {} and mem.lookup("WILD(*)") == []
    assert mem.search_to_string("WORD(a)") == "" and mem.bm25_topk(["a"], k=3).num_rows == 0


def _word_docs(n_docs: int, seed: int) -> pa.Table:
    rng = np.random.default_rng(seed)
    vocab = [f"w{i}" for i in range(80)]
    texts = [" ".join(rng.choice(vocab, size=int(rng.integers(1, 25)))) for _ in range(n_docs)]
    return pa.table({"doc_id": pa.array(np.arange(1, n_docs + 1)), "text": pa.array(texts)})


@pytest.fixture(scope="module")
def partitioned_indexes(ray_session, tmp_path_factory):
    """The persistent and in-memory index of one dataset of 4 blocks,
    inverted 50 docs per batch, so the term sort, forced
    (``common.GATHER_BYTES`` = -1), has several partitions."""
    from fulltextsearch_ray.functions import common

    ds = ray.data.from_arrow(_word_docs(200, seed=5)).repartition(4)
    kw = dict(text_col="text", doc_id_col="doc_id", batch_size=50)
    idx = str(tmp_path_factory.mktemp("partidx"))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(common, "GATHER_BYTES", -1)
        build_index(ds, idx, overwrite=True, **kw)
        return IndexSearcher(idx), build_in_memory(ds, **kw)


def test_in_memory_partitions_match_persistent_for_every_term(partitioned_indexes):
    """Every term of an index spread over several in-memory blobs
    answers as in the persistent index — the regression for terms an
    unsorted concat of the merged partitions once dropped silently."""
    disk, mem = partitioned_indexes
    assert len(mem.posting_reader._blobs) >= 2
    terms = disk.terms.to_pylist()
    assert mem.terms.to_pylist() == terms and len(terms) == 80
    for t in terms:
        assert mem.term_stats(t) == disk.term_stats(t), t
        assert mem.search_to_string(f"WORD({t})") == disk.search_to_string(f"WORD({t})"), t
        assert mem.bm25_topk([t], k=5).equals(disk.bm25_topk([t], k=5)), t
    q = terms[::7]
    assert mem.bm25_topk(q, k=10).equals(disk.bm25_topk(q, k=10))


def _fresh_mem():
    return build_in_memory(
        ray.data.from_arrow(_word_docs(40, seed=9)), text_col="text", doc_id_col="doc_id"
    )


def test_cold_in_memory_lookup_is_one_read_range(ray_session, monkeypatch):
    """A cold in-memory lookup is one ``read_range`` of the term's
    record in its blob and one ``varint_decode`` over it, for BM25 and
    positions, with the counters of the file reader."""
    from fulltextsearch_ray.state import payloads

    decodes = []
    real = payloads.varint_decode

    def counting(buf, *a, **k):
        decodes.append(len(buf))
        return real(buf, *a, **k)

    s = _fresh_mem()
    monkeypatch.setattr(payloads, "varint_decode", counting)
    r = s.posting_reader
    assert (r.files_opened, r.payload_reads, r.payload_bytes) == (0, 0, 0)
    path, _off, bm25_len, length = s._term_address(0, "w7")
    assert path in r._blobs and 0 < bm25_len < length
    assert len(s.get_doc_tfs("w7")[0]) > 0
    assert (r.payload_reads, r.payload_bytes, r.files_opened) == (1, bm25_len, 1)
    assert decodes == [bm25_len]
    s.get_doc_tfs("w7")  # cached: no read
    assert r.payload_reads == 1
    assert len(s.get_postings("w7").docs) > 0  # positions: the whole record
    assert (r.payload_reads, r.payload_bytes, r.files_opened) == (2, bm25_len + length, 1)
    assert decodes == [bm25_len, length]
    assert len(s.get_doc_tfs("absent")[0]) == 0  # not in the catalog: no read
    assert r.payload_reads == 2 and len(decodes) == 2


def test_in_memory_truncated_blob_raises(ray_session):
    s = _fresh_mem()
    blobs = s.posting_reader._blobs
    path, off, _bm25, _len = max(
        (s._term_address(0, t) for t in s.terms.to_pylist()), key=lambda a: a[1]
    )
    term = next(t for t in s.terms.to_pylist() if s._term_address(0, t)[:2] == (path, off))
    blobs[path] = blobs[path][: off + 1]
    with pytest.raises(ValueError, match=f"{path}.*{term!r}"):
        s.get_doc_tfs(term)


@pytest.mark.parametrize(
    "docs_delta, tfs_delta, why",
    [
        # lengths that still sum to the address: the docs region
        # swallows the first tfs byte, and the decoded counts disagree
        # with df
        (1, 1, "docs region holds"),
        # lengths that disagree with the address
        (1, 0, "header lengths"),
    ],
)
def test_in_memory_corrupt_header_length_raises(ray_session, docs_delta, tfs_delta, why):
    """Header lengths shifted in an in-memory blob fail the record
    checks of the disk searcher, naming the blob and the term."""
    from fulltextsearch_ray.codecs import varint_decode, varint_encode

    s = _fresh_mem()
    blobs = s.posting_reader._blobs
    for term in s.terms.to_pylist():
        path, off, _bm25, length = s._term_address(0, term)
        rec = np.frombuffer(blobs[path][off : off + length], dtype=np.uint8)
        hdr_end = int(np.flatnonzero(rec < 0x80)[7]) + 1
        v = varint_decode(rec[:hdr_end])
        if v[0] == 1 and v[1] >= 2 and v[4] < 127:
            break
    else:
        raise AssertionError("no single-block term")
    v[4] += np.uint64(docs_delta)
    v[5] -= np.uint64(tfs_delta)
    b = varint_encode(v)
    assert len(b) == hdr_end
    blobs[path] = blobs[path][:off] + bytes(b) + blobs[path][off + hdr_end :]
    with pytest.raises(ValueError, match=f"{path}: corrupt postings of term {term!r}: {why}"):
        s.get_doc_tfs(term)
