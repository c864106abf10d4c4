"""In-memory index variant (reference InMemoryIndex.cs): identical
query results to the persistent index over the same corpus, with no
segment directory on disk."""

import os

import pyarrow as pa
import pytest

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
