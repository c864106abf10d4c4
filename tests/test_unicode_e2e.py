"""End-to-end Unicode + error-path tests."""

import pyarrow as pa
import pytest
import ray.data

from fulltextsearch_ray.pipelines.build import build_index
from fulltextsearch_ray.pipelines.query import IndexSearcher


@pytest.fixture(scope="module")
def unicode_index(ray_session, tmp_path_factory):
    docs = [
        "héllo_wörld and some ascii",          # doc 1
        "Füll-Tëxt suche für héllo",           # doc 2
        "普通 的 文本 héllo_wörld",              # doc 3 (CJK tokens)
        "x" * 70 + " short",                   # doc 4 (truncation)
    ]
    tbl = pa.table(
        {
            "doc_id": pa.array(range(1, len(docs) + 1), pa.uint64()),
            "text": pa.array(docs),
        }
    )
    idx = str(tmp_path_factory.mktemp("uniidx"))
    build_index(ray.data.from_arrow(tbl), idx, doc_id_col="doc_id", overwrite=True)
    return IndexSearcher(idx)


def test_unicode_terms_indexed(unicode_index):
    s = unicode_index
    assert s.search_to_string("WORD(héllo_wörld)") == "{[1,1,1]}, {[3,1,4]}"
    assert s.search_to_string("WORD(füll-tëxt)") == "{[2,1,1]}"
    assert s.search_to_string("WORD(普通)") == "{[3,1,1]}"


def test_unicode_lowercasing(unicode_index):
    # Füll-Tëxt was indexed lowercased; the raw-case query misses
    # (reference semantics: queries are NOT lowercased)
    assert unicode_index.search_to_string("WORD(Füll-Tëxt)") == ""


def test_unicode_wildcard_and_edit(unicode_index):
    assert unicode_index.lookup("WILD(héllo*)") == ["héllo", "héllo_wörld"]
    assert unicode_index.lookup("EDIT(hèllo,1)") == ["héllo"]


def test_truncated_term_queryable(unicode_index):
    # 70-char token indexed as its 64-char prefix
    assert unicode_index.search_to_string(f"WORD({'x' * 64})") == "{[4,1,1]}"
    assert unicode_index.term_stats("x" * 70) == (0, 0)


def test_seq_rejects_non_word_args(unicode_index):
    with pytest.raises(ValueError, match="phrase"):
        unicode_index.evaluate("SEQ(WILD(h*),WORD(and))")


def test_unknown_function_rejected(unicode_index):
    from fulltextsearch_ray.parser import QueryParseError

    with pytest.raises(QueryParseError):
        unicode_index.evaluate("NOT(WORD(x))")
