"""Regression tests for the ADVICE findings.

(The round-1 df-definition and binary-search lookup tests live in
tests/test_bm25.py, the posting encoder / run merge tests in
tests/test_invert.py, the distributed cut-rebuild guard in
tests/test_spans.py, the window-cents rounding test in
tests/test_windows_sessions.py.  The boundary-spill lookup a term split across
two postings files needed is gone: the build now refuses such a
split, tested in tests/test_posting_reader.py.)
"""

import pyarrow as pa
import pytest

from fulltextsearch_ray.pipelines.build import build_index


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


def test_highlight_missing_forward_row_is_descriptive(ray_session, tmp_path):
    """Round-4 ADVICE: a hit doc with no forward-store row surfaces a
    descriptive error, not a KeyError inside the actor."""
    import ray.data

    from fulltextsearch_ray.functions.highlight import HighlightStage

    tbl = pa.table(
        {
            "doc_id": pa.array([1, 2], pa.int64()),
            "text": pa.array(["apple banana", "banana cherry"], pa.string()),
        }
    )
    idx = str(tmp_path / "idx")
    build_index(
        ray.data.from_arrow(tbl), idx, text_col="text", doc_id_col="doc_id",
        num_buckets=2, overwrite=True, store_forward=False,  # no forward rows
    )
    import ray as _ray

    hits = pa.table(
        {"doc_id": pa.array([1], pa.int64()), "token_ids": pa.array([[1]], pa.list_(pa.int64()))}
    )
    stage = HighlightStage(_ray.put(hits), idx)
    with pytest.raises(Exception, match="forward-store|store_forward"):
        stage(tbl)
