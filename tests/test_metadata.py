"""Per-doc metadata surface (reference IMetadataStorage / metadata
verb): meta_cols persisted at build time come back by doc id.  The
invert call that tokenizes a batch writes its ``docs_meta`` rows, so a
build reads the corpus once whatever it stores."""

import json

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from fulltextsearch_ray.pipelines.build import build_index
from fulltextsearch_ray.pipelines.query import IndexSearcher


@pytest.fixture(scope="module")
def meta_index(ray_session, tmp_path_factory):
    import ray.data

    tbl = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(["apple banana", "banana cherry", "cherry date"], pa.string()),
            "lang": pa.array(["en", "de", "fr"], pa.string()),
            "payload": pa.array(
                [json.dumps({"k": i, "tag": f"t{i}"}) for i in range(1, 4)], pa.string()
            ),
        }
    )
    idx = str(tmp_path_factory.mktemp("metaidx"))
    build_index(
        ray.data.from_arrow(tbl), idx, text_col="text", doc_id_col="doc_id",
        meta_cols=("lang", "payload"), overwrite=True,
    )
    return idx


def test_metadata_roundtrip(meta_index):
    s = IndexSearcher(meta_index)
    got = s.get_metadata(2)
    assert got["lang"] == "de"
    assert json.loads(got["payload"]) == {"k": 2, "tag": "t2"}
    many = s.get_metadata_many([1, 3])
    assert set(many) == {1, 3}
    assert many[3]["lang"] == "fr"
    with pytest.raises(KeyError):
        s.get_metadata(99)


def test_meta_cols_build_streams_no_materialize(ray_session, tmp_path, monkeypatch):
    """The meta_cols build path must NOT pin the corpus: docs_meta is
    written by the streaming invert tasks (round-3 verdict: build.py
    pinned the whole normalized corpus whenever meta_cols was
    requested)."""
    import ray.data

    n = 300
    tbl = pa.table(
        {
            "doc_id": pa.array(range(1, n + 1), pa.int64()),
            "text": pa.array([f"alpha beta doc{i}" for i in range(n)], pa.string()),
            "lang": pa.array(["en", "de"][i % 2] for i in range(n)),
        }
    )
    calls: list = []
    orig = ray.data.Dataset.materialize

    def spy(self, *a, **k):
        calls.append(str(self._plan.get_plan_as_string(type(self))).splitlines()[0])
        return orig(self, *a, **k)

    monkeypatch.setattr(ray.data.Dataset, "materialize", spy)
    idx = str(tmp_path / "idx")
    build_index(
        ray.data.from_arrow(tbl), idx, text_col="text", doc_id_col="doc_id",
        meta_cols=("lang",), overwrite=True,
    )
    # a write_parquet would materialize its own Write plan (tiny ack
    # blocks); anything else materialized here would be the pinned
    # corpus
    assert all(c.startswith("Write") for c in calls), calls
    s = IndexSearcher(idx)
    assert s.get_metadata(5)["lang"] == "en"
    assert s.get_metadata(6)["lang"] == "de"


def test_metadata_cli(meta_index, capsys):
    from fulltextsearch_ray.cli import main

    assert main(["metadata", "--index", meta_index, "--doc", "1"]) == 0
    out = json.loads(capsys.readouterr().out.strip())
    assert out["lang"] == "en"


def test_meta_cols_on_positional_fast_path(ray_session, tmp_path):
    """Regression: meta_cols were silently DROPPED when building from a
    parquet path with positional ids (the docs_meta pass only ran on
    the dataset path) — the caller asked for stored metadata and got
    none."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from fulltextsearch_ray.pipelines.build import build_index
    from fulltextsearch_ray.pipelines.query import IndexSearcher

    corpus = tmp_path / "corpus"
    corpus.mkdir()
    pq.write_table(
        pa.table(
            {
                "content": pa.array(["alpha beta", "gamma delta", "epsilon"]),
                "lang": pa.array(["en", "de", "fr"]),
            }
        ),
        str(corpus / "part-0.parquet"),
    )
    idx = str(tmp_path / "idx")
    build_index(str(corpus), idx, text_col="content", meta_cols=("lang",))
    s = IndexSearcher(idx)
    assert s.get_metadata(1).get("lang") == "en"
    assert s.get_metadata(3).get("lang") == "fr"


def test_meta_cols_with_text_cols(ray_session, tmp_path):
    """Regression: the docs_meta rows were once computed with
    text_col only — a compound (text_cols) build with meta_cols crashed
    on the missing 'text' column; doc_len/sha256 must match the docs
    sentinel's multi-field semantics."""
    import hashlib

    import pyarrow as pa
    import pyarrow.dataset as pads
    import ray.data

    from fulltextsearch_ray.pipelines.build import build_index
    from fulltextsearch_ray.pipelines.query import IndexSearcher

    tbl = pa.table(
        {
            "doc_id": pa.array([1, 2], pa.uint64()),
            "title": pa.array(["alpha beta", "gamma"]),
            "body": pa.array(["one two three", None]),
            "lang": pa.array(["en", "de"]),
        }
    )
    idx = str(tmp_path / "idx")
    build_index(
        ray.data.from_arrow(tbl), idx, text_cols=["title", "body"],
        doc_id_col="doc_id", meta_cols=("lang",),
    )
    s = IndexSearcher(idx)
    assert s.get_metadata(2).get("lang") == "de"
    meta_dir = [p for p in pads.dataset(f"{idx}/segments/seg-00000/docs_meta").to_table().to_pylist()]
    by_id = {r["doc_id"]: r for r in meta_dir}
    assert by_id[1]["doc_len"] == 5  # 2 title + 3 body tokens
    want_sha = hashlib.sha256("alpha beta\x1fone two three".encode()).hexdigest()
    assert by_id[1]["sha256"] == want_sha


def _meta_corpus(root, blocks):
    """One parquet file per block of (content, lang) rows."""
    import pyarrow.parquet as pq

    root.mkdir()
    for i, rows in enumerate(blocks):
        pq.write_table(pa.table({"content": pa.array([r[0] for r in rows], pa.string()),
                                 "lang": [r[1] for r in rows]}), str(root / f"part-{i}.parquet"))
    return str(root)


@pytest.mark.parametrize("path", ["parquet", "dataset"])
def test_docs_without_tokens_keep_metadata_and_spans(ray_session, tmp_path, path):
    """A batch mixing empty and null text with normal docs, and a batch
    in which no doc has a token: those docs keep their metadata, and
    their forward spans are empty, on both build paths."""
    import ray.data

    blocks = [[("alpha beta", "en"), ("", "de"), (None, "fr"), ("gamma", "it")],
              [("", "nl"), (None, "pl"), ("!! ..", "sv")]]
    corpus = _meta_corpus(tmp_path / "corpus", blocks)
    idx = str(tmp_path / "idx")
    kw = dict(text_col="content", meta_cols=("lang",), store_forward=True)
    if path == "parquet":
        build_index(corpus, idx, **kw)
    else:
        tables = []
        for i, rows in enumerate(blocks):
            start = 1 + sum(len(b) for b in blocks[:i])
            tables.append(pa.table({"doc_id": pa.array(range(start, start + len(rows)), pa.int64()),
                                    "content": pa.array([r[0] for r in rows], pa.string()),
                                    "lang": [r[1] for r in rows]}))
        build_index(ray.data.from_arrow(tables), idx, doc_id_col="doc_id", batch_size=4, **kw)
    s = IndexSearcher(idx)
    langs = [lang for rows in blocks for _t, lang in rows]
    assert s.get_metadata_many(range(1, 8)) == {d: {"lang": lang} for d, lang in enumerate(langs, 1)}
    spans = s.get_positions_many(range(1, 8))
    for d in (2, 3, 5, 6, 7):
        assert spans[d] == ([], []), d
    assert spans[1] == ([0, 6], [5, 4]) and spans[4] == ([0], [5])


def test_parquet_build_writes_docs_meta_per_invert_call(ray_session, tmp_path, monkeypatch):
    """An 8-file parquet build writes one docs_meta file per invert call
    (here one per file), not one for the whole corpus, and every doc's
    metadata is served; a lookup reads only the file whose doc range
    holds the doc."""
    import glob

    from fulltextsearch_ray.pipelines import query

    from fulltextsearch_ray.sources.corpus import write_synth_corpus
    from fulltextsearch_ray.state.index import load_meta, segment_dir

    corpus = str(tmp_path / "corpus")
    write_synth_corpus(corpus, 800, rows_per_file=100)
    idx = str(tmp_path / "idx")
    build_index(corpus, idx, text_col="content", meta_cols=("lang",))
    (seg,) = load_meta(idx).segments
    assert len(glob.glob(f"{segment_dir(idx, seg)}/docs_meta/*.parquet")) == 8
    want = pa.concat_tables(pq.read_table(f, columns=["lang"])
                            for f in sorted(glob.glob(f"{corpus}/*.parquet")))["lang"].to_pylist()
    s = IndexSearcher(idx)
    got = s.get_metadata_many(range(1, 801))
    assert got == {d: {"lang": lang} for d, lang in enumerate(want, 1)}
    reads = []
    read_table = pq.read_table
    monkeypatch.setattr(query.pq, "read_table", lambda f, **k: reads.append(f) or read_table(f, **k))
    assert s.get_metadata(750) == {"lang": want[749]}
    assert len(reads) == 1 and reads[0].endswith(f"{701:020d}.parquet")
