"""enwiki XML / text-directory sources (reference input types
enwiki / text / name, ConsoleUtil/Program.cs:297-356) and the
download-mirror helper (file:// URLs — no network in tests)."""

import gzip
import json
import os

import pytest

from fulltextsearch_ray.sources.enwiki import (
    fetch_to_dir,
    iter_enwiki_titles,
    read_enwiki_corpus,
    read_text_dir,
)

XML_A = """<?xml version="1.0" encoding="utf-8"?>
<feed xmlns="http://www.mediawiki.org/xml/export-0.10/">
  <doc>
    <title>Wikipedia: Anarchism</title>
    <abstract>ignored text</abstract>
  </doc>
  <doc>
    <title>Wikipedia: Apollo</title>
  </doc>
  <doc>
    <title></title>
  </doc>
</feed>
"""

XML_B = """<feed>
  <doc><title>Plain Banana</title></doc>
</feed>
"""


@pytest.fixture(scope="module")
def wiki_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("wiki")
    (d / "a-abstract.xml").write_text(XML_A, encoding="utf-8")
    with gzip.open(d / "b-abstract.xml.gz", "wt", encoding="utf-8") as f:
        f.write(XML_B)
    return str(d)


def test_iter_titles_strips_prefix_keeps_empty(wiki_dir):
    # empty titles yield EMPTY documents (not dropped) so positional
    # ids stay dense — round-2 ADVICE #3
    titles = list(iter_enwiki_titles(os.path.join(wiki_dir, "a-abstract.xml")))
    assert titles == ["Anarchism", "Apollo", ""]


def test_iter_titles_gzip(wiki_dir):
    assert list(iter_enwiki_titles(os.path.join(wiki_dir, "b-abstract.xml.gz"))) == [
        "Plain Banana"
    ]


def test_read_enwiki_corpus_positional_ids(ray_session, wiki_dir):
    rows = sorted(
        read_enwiki_corpus(wiki_dir).take_all(), key=lambda r: r["doc_id"]
    )
    # sorted file list: a-abstract.xml (3 titles, one empty) then
    # b-abstract.xml.gz (1)
    assert [(r["doc_id"], r["content"]) for r in rows] == [
        (1, "Anarchism"),
        (2, "Apollo"),
        (3, ""),
        (4, "Plain Banana"),
    ]
    # per-file ordinal restarts in file b, mirroring the reference's counter
    assert [json.loads(r["meta"])["id"] for r in rows] == [1, 2, 3, 1]


def test_enwiki_index_end_to_end(ray_session, wiki_dir, tmp_path):
    from fulltextsearch_ray.pipelines.build import build_index
    from fulltextsearch_ray.pipelines.query import IndexSearcher

    idx = str(tmp_path / "idx")
    build_index(
        read_enwiki_corpus(wiki_dir),
        idx,
        text_col="content",
        doc_id_col="doc_id",
        meta_cols=("meta",),
    )
    s = IndexSearcher(idx)
    assert s.search_to_string("WORD(apollo)") == "{[2,1,1]}"
    assert s.search_to_string("WORD(banana)") == "{[4,1,2]}"
    assert json.loads(s.get_metadata(4)["meta"]) == {"id": 1}


def test_enwiki_cli_incremental_sessions(ray_session, wiki_dir, tmp_path):
    """Second CLI index run appends a segment and continues doc ids
    (reference header contract), searchable across both sessions."""
    from fulltextsearch_ray.cli import main
    from fulltextsearch_ray.pipelines.query import IndexSearcher

    more = tmp_path / "more"
    more.mkdir()
    (more / "c.xml").write_text(
        "<feed><doc><title>Wikipedia: Cherry orchard</title></doc></feed>", encoding="utf-8"
    )
    idx = str(tmp_path / "idx")
    assert main(["index", "--input", wiki_dir, "--index", idx,
                 "--input-type", "enwiki"]) == 0
    assert main(["index", "--input", str(more), "--index", idx,
                 "--input-type", "enwiki"]) == 0
    s = IndexSearcher(idx)
    assert s.search_to_string("WORD(apollo)") == "{[2,1,1]}"  # session 1
    assert s.search_to_string("WORD(cherry)") == "{[5,1,1]}"  # session 2 continues ids
    assert json.loads(s.get_metadata(5)["meta"]) == {"id": 1}


@pytest.fixture(scope="module")
def txt_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("txts")
    (d / "one.txt").write_text("hello world", encoding="utf-8")
    (d / "two.txt").write_text("goodbye world", encoding="utf-8")
    return str(d)


def test_read_text_dir_content_mode(ray_session, txt_dir):
    rows = sorted(read_text_dir(txt_dir).take_all(), key=lambda r: r["doc_id"])
    assert [r["content"] for r in rows] == ["hello world", "goodbye world"]
    meta = json.loads(rows[0]["meta"])
    assert meta["filename"].endswith("one.txt") and meta["size"] == 11


def test_read_text_dir_name_mode(ray_session, txt_dir):
    rows = sorted(
        read_text_dir(txt_dir, mode="name").take_all(), key=lambda r: r["doc_id"]
    )
    assert rows[0]["content"].endswith("one.txt")
    with pytest.raises(ValueError):
        read_text_dir(txt_dir, mode="bogus")


def test_fetch_to_dir_file_urls_resumable(wiki_dir, tmp_path):
    src = os.path.join(wiki_dir, "a-abstract.xml")
    urls = ["file://" + src]
    dest = str(tmp_path / "mirror")
    got = fetch_to_dir(urls, dest)
    assert got == [os.path.join(dest, "a-abstract.xml")]
    assert open(got[0]).read() == XML_A
    mtime = os.path.getmtime(got[0])
    assert fetch_to_dir(urls, dest) == got  # second run skips (resumable)
    assert os.path.getmtime(got[0]) == mtime


def test_fetch_to_dir_collisions_order_independent(wiki_dir, tmp_path):
    """Two URLs sharing a basename must resolve to the SAME local
    files regardless of list order, across runs (a reordered re-run
    used to serve one URL's cached bytes under the other's name)."""
    import shutil

    src_a = os.path.join(wiki_dir, "a-abstract.xml")
    dir_b = tmp_path / "other"
    dir_b.mkdir()
    src_b = str(dir_b / "a-abstract.xml")
    shutil.copy(src_a, src_b)
    with open(src_b, "a") as f:
        f.write("\n<!-- b -->\n")
    ua, ub = "file://" + src_a, "file://" + src_b
    dest = str(tmp_path / "mirror")
    got1 = fetch_to_dir([ua, ub], dest)
    # both claimants hash-prefixed: no order-dependent bare-name winner
    assert len(set(got1)) == 2
    bytes1 = [open(p).read() for p in got1]
    got2 = fetch_to_dir([ub, ua], dest)  # reordered re-run
    assert got2 == [got1[1], got1[0]]
    assert [open(p).read() for p in got2] == [bytes1[1], bytes1[0]]
    # cross-run: a dir seeded by a solo fetch of ua must not serve
    # ua's bytes when ub later claims the same basename
    dest2 = str(tmp_path / "mirror2")
    solo = fetch_to_dir([ua], dest2)
    assert solo == [os.path.join(dest2, "a-abstract.xml")]
    later = fetch_to_dir([ub], dest2)
    assert later != solo
    assert open(later[0]).read() != open(solo[0]).read()
