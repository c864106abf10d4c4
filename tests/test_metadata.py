"""Per-doc metadata surface (reference IMetadataStorage / metadata
verb): meta_cols persisted at build time come back by doc id."""

import json

import pyarrow as pa
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
    written from a streaming pass and the invert re-executes the lazy
    normalize graph (round-3 verdict: build.py pinned the whole
    normalized corpus whenever meta_cols was requested)."""
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
    # write_parquet materializes its own Write plan (tiny ack blocks);
    # anything else materialized here would be the pinned corpus
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
    """Regression: the docs_meta pass constructed DocStatsStage with
    text_col only — a compound (text_cols) build with meta_cols crashed
    on the missing 'text' column, and doc_len/sha256 must match the
    fused invert sentinel's multi-field semantics."""
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
