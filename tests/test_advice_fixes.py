"""Regression tests for the ADVICE findings.

(The round-1 df-definition and binary-search lookup tests live in
tests/test_bm25.py, the posting encoder / run merge tests in
tests/test_invert.py, the distributed cut-rebuild guard in
tests/test_spans.py, the window-cents rounding test in
tests/test_windows_sessions.py, the highlight missing-forward-row test
in tests/test_forward_store.py.  The boundary-spill lookup a term split
across two postings files needed is gone: the build now refuses such a
split, tested in tests/test_posting_reader.py.)
"""


# ---------------------------------------------------------------------------
# round-2 ADVICE findings
# ---------------------------------------------------------------------------


def test_enwiki_empty_titles_keep_dense_ids(tmp_path, ray_session):
    """An empty <title> (or one that empties after the prefix strip)
    must keep its positional id slot — ids stay dense, matching the
    row_number oracle (round-2 ADVICE #3)."""
    from fulltextsearch_ray.sources.enwiki import read_enwiki_corpus

    xml = (
        "<feed>"
        "<doc><title>Wikipedia: alpha</title></doc>"
        "<doc><title>Wikipedia: </title></doc>"
        "<doc><title></title></doc>"
        "<doc><title>Wikipedia: beta</title></doc>"
        "</feed>"
    )
    p = tmp_path / "shard-00.xml"
    p.write_text(xml, encoding="utf-8")
    rows = sorted(
        read_enwiki_corpus(str(tmp_path)).take_all(), key=lambda r: r["doc_id"]
    )
    assert [r["doc_id"] for r in rows] == [1, 2, 3, 4]
    assert [r["content"] for r in rows] == ["alpha", "", "", "beta"]
