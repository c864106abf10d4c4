"""End-to-end golden tests — ported from the reference's SearchTest.cs
(FIXTURES.md §2): the 6-document corpus, exact match strings, and two
incremental add sessions.  This is the conformance surface."""

import os

import pyarrow as pa
import pytest
import ray.data

from fulltextsearch_ray.pipelines.build import build_index
from fulltextsearch_ray.pipelines.query import IndexSearcher

DOCS_6 = [
    "Hello World!",
    "Petro Petrolium Petrol",
    "This is test document for search unit tests",
    "This test document is used for search operators",
    "This full-text search only supports boolean operators: and, or",
    "Programming is very exciting. Programs can help. This is fantastic!!!",
]


def _ds(texts, start_id):
    return ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(range(start_id, start_id + len(texts)), type=pa.uint64()),
                "text": pa.array(texts, type=pa.string()),
            }
        )
    )


@pytest.fixture(scope="module")
def index_sessions(ray_session, tmp_path_factory):
    """Build the 6-doc index, then two incremental sessions (docs 7, 8)."""
    d = str(tmp_path_factory.mktemp("golden_idx"))
    build_index(_ds(DOCS_6, 1), d, doc_id_col="doc_id", overwrite=True)
    s1 = IndexSearcher(d)
    build_index(_ds(["this is not a joke"], 7), d, doc_id_col="doc_id")
    s2 = IndexSearcher(d)
    build_index(_ds(["Really, this is not a joke"], 8), d, doc_id_col="doc_id")
    s3 = IndexSearcher(d)
    return s1, s2, s3


def test_word_this_after_6(index_sessions):
    s1, _, _ = index_sessions
    assert s1.search_to_string("WORD(this)") == "{[3,1,1]}, {[4,1,1]}, {[5,1,1]}, {[6,1,8]}"


def test_word_this_after_7(index_sessions):
    _, s2, _ = index_sessions
    assert (
        s2.search_to_string("WORD(this)")
        == "{[3,1,1]}, {[4,1,1]}, {[5,1,1]}, {[6,1,8]}, {[7,1,1]}"
    )


def test_word_this_after_8(index_sessions):
    _, _, s3 = index_sessions
    assert (
        s3.search_to_string("WORD(this)")
        == "{[3,1,1]}, {[4,1,1]}, {[5,1,1]}, {[6,1,8]}, {[7,1,1]}, {[8,1,2]}"
    )


def test_wild_ths_after_8(index_sessions):
    _, _, s3 = index_sessions
    assert (
        s3.search_to_string("WILD(th?s)")
        == "{[3,1,1]}, {[4,1,1]}, {[5,1,1]}, {[6,1,8]}, {[7,1,1]}, {[8,1,2]}"
    )


def test_edit_these_2_after_8(index_sessions):
    _, _, s3 = index_sessions
    assert s3.search_to_string("EDIT(these,2)") == (
        "{[3,1,1]}, {[3,1,3]}, {[4,1,1]}, {[4,1,2]}, {[5,1,1]}, {[6,1,8]}, "
        "{[7,1,1]}, {[8,1,2]}"
    )


def test_or_query_golden(index_sessions):
    s1, _, _ = index_sessions
    assert s1.search_to_string("OR(WORD(this),WORD(is))") == (
        "{[3,1,1]}, {[3,1,2]}, {[4,1,1]}, {[4,1,4]}, {[5,1,1]}, "
        "{[6,1,2]}, {[6,1,8]}, {[6,1,9]}"
    )


def test_or_multi_golden(index_sessions):
    s1, _, _ = index_sessions
    assert s1.search_to_string("OR(WORD(this),WORD(is),WORD(and))") == (
        "{[3,1,1]}, {[3,1,2]}, {[4,1,1]}, {[4,1,4]}, {[5,1,1]}, {[5,1,8]}, "
        "{[6,1,2]}, {[6,1,8]}, {[6,1,9]}"
    )


def test_phrase_goldens(index_sessions):
    s1, _, _ = index_sessions
    assert s1.search_to_string("SEQ(WORD(search),WORD(only))") == "{[5,1,3], [5,1,4]}"
    assert (
        s1.search_to_string("SEQ(WORD(this),WORD(is))")
        == "{[3,1,1], [3,1,2]}, {[6,1,8], [6,1,9]}"
    )
    assert (
        s1.search_to_string("SEQ(WORD(search),WORD(only),WORD(supports),WORD(boolean))")
        == "{[5,1,3], [5,1,4], [5,1,5], [5,1,6]}"
    )


def test_or_over_phrase_children(index_sessions):
    """OR over SEQ children — the reference compiles this through
    OrMultiQuery with MatchComparer ordering (lexicographic over
    occurrence sequences, shorter prefix first)."""
    s1, _, _ = index_sessions
    assert s1.search_to_string("OR(SEQ(WORD(search),WORD(only)),WORD(boolean))") == (
        "{[5,1,3], [5,1,4]}, {[5,1,6]}"
    )
    # same start position: width-1 match sorts before its width-2 extension
    assert s1.search_to_string("OR(WORD(search),SEQ(WORD(search),WORD(only)))") == (
        "{[3,1,6]}, {[4,1,7]}, {[5,1,3]}, {[5,1,3], [5,1,4]}"
    )
    # mixed AND over phrase children (extension)
    out = s1.search_to_string("AND(SEQ(WORD(this),WORD(is)),WORD(test))")
    assert out == "{[3,1,1], [3,1,2]}, {[3,1,3]}"


def test_null_query(index_sessions):
    s1, _, _ = index_sessions
    assert s1.search_to_string("WORD(nonexistent)") == ""


def test_and_extension(index_sessions):
    s1, _, _ = index_sessions
    # docs containing both 'test' and 'search': 3, 4 (occurrences of both)
    out = s1.search_to_string("AND(WORD(test),WORD(search))")
    assert out == "{[3,1,3]}, {[3,1,6]}, {[4,1,2]}, {[4,1,7]}"


def test_lookup_verb(index_sessions):
    s1, _, _ = index_sessions
    assert s1.lookup("WILD(pet*)") == ["petro", "petrol", "petrolium"]
    assert s1.lookup("EDIT(programing,1)") == ["programming"]


def test_compaction_preserves_results(index_sessions, tmp_path_factory):
    """Compacting 3 incremental segments into one must not change any
    query result (the chain-collapse invariant)."""
    import shutil

    from fulltextsearch_ray.pipelines.build import compact_index
    from fulltextsearch_ray.pipelines.query import IndexSearcher
    from fulltextsearch_ray.state.index import load_meta

    _, _, s3 = index_sessions
    d2 = str(tmp_path_factory.mktemp("compacted"))
    shutil.copytree(s3.index_dir, d2, dirs_exist_ok=True)
    assert len(load_meta(d2).segments) == 3
    compact_index(d2)
    assert len(load_meta(d2).segments) == 1
    sc = IndexSearcher(d2)
    for q in ["WORD(this)", "WILD(th?s)", "EDIT(these,2)", "SEQ(WORD(this),WORD(is))",
              "OR(WORD(this),WORD(is),WORD(and))"]:
        assert sc.search_to_string(q) == s3.search_to_string(q), q
    assert sc.num_docs == s3.num_docs
    assert sc.term_stats("this") == s3.term_stats("this")


def test_term_stats_and_meta(index_sessions):
    s1, _, s3 = index_sessions
    assert s1.num_docs == 6
    assert s3.num_docs == 8
    assert s1.term_stats("this") == (4, 4)
    assert s3.term_stats("this") == (6, 6)
    assert s1.term_stats("is") == (3, 4)
    assert s1.term_stats("zzz") == (0, 0)


def test_compaction_drops_docstats_sentinels(index_sessions, tmp_path_factory):
    """Doc stats live in the docs tables only: no catalog holds a
    sentinel key and every posting row read back is a posting row,
    before compaction and after it (the docs table is rebuilt from the
    docs dirs — storing the stats twice would re-pay their shuffle on
    every future compaction)."""
    import shutil

    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from fulltextsearch_ray.pipelines.build import compact_index, read_postings_dataset
    from fulltextsearch_ray.stages.invert import DOCSTATS_TERM_PREFIX
    from fulltextsearch_ray.state.index import load_meta, segment_dir

    def sentinels(idx) -> int:
        segs = load_meta(idx).segments
        rows = read_postings_dataset(idx, segs).take_all()
        assert rows and {r["bucket"] for r in rows} == {0}
        n = sum(r["term"].startswith(DOCSTATS_TERM_PREFIX) for r in rows)
        for seg in segs:
            t = pq.read_table(os.path.join(segment_dir(idx, seg), "catalog"), columns=["term"])
            n += pc.sum(pc.starts_with(t["term"], DOCSTATS_TERM_PREFIX)).as_py() or 0
        return n

    _, _, s3 = index_sessions
    d2 = str(tmp_path_factory.mktemp("compact_nosent"))
    shutil.copytree(s3.index_dir, d2, dirs_exist_ok=True)
    assert sentinels(d2) == 0
    compact_index(d2)
    assert sentinels(d2) == 0
    # and the docs table still serves every doc
    from fulltextsearch_ray.pipelines.query import IndexSearcher

    assert IndexSearcher(d2).num_docs == s3.num_docs
