"""Session-5 regression tests: per-file fetch-manifest persistence."""

import json
import os

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from fulltextsearch_ray.pipelines.build import build_index
from fulltextsearch_ray.sources.enwiki import fetch_to_dir


def test_fetch_to_dir_midrun_failure_keeps_manifest(tmp_path):
    """Provenance of files already fetched must survive a failure on a
    LATER url — otherwise a re-run with a same-basename different URL
    would serve the first URL's cached bytes as the second's."""
    d1 = tmp_path / "s1"
    d1.mkdir()
    f1 = d1 / "x.txt"
    f1.write_text("from url A")
    missing = tmp_path / "nope" / "x2.txt"  # never created
    dest = str(tmp_path / "mirror")
    with pytest.raises(Exception):
        fetch_to_dir(["file://" + str(f1), "file://" + str(missing)], dest)
    manifest = json.loads(open(os.path.join(dest, ".fetch_sources.json")).read())
    assert manifest["x.txt"] == "file://" + str(f1)
    # a DIFFERENT url claiming the same basename is hash-prefixed, not
    # served A's cached bytes
    d2 = tmp_path / "s2"
    d2.mkdir()
    f2 = d2 / "x.txt"
    f2.write_text("from url B")
    got = fetch_to_dir(["file://" + str(f2)], dest)
    assert open(got[0]).read() == "from url B"


def test_build_rejects_duplicate_doc_ids_in_batch(ray_session, tmp_path):
    """Duplicate user doc_ids in one batch used to skip the occurrence
    sort (nondecreasing guard) and silently merge two documents into
    one posting entry with non-monotonic positions — must fail loud."""
    idx = str(tmp_path / "idx")
    tbl = pa.table({
        "doc_id": pa.array([5, 5], pa.int64()),
        "text": pa.array(["b a", "a"], pa.string()),
    })
    with pytest.raises(Exception, match="must be unique"):
        build_index(ray.data.from_arrow(tbl), idx,
                    text_col="text", doc_id_col="doc_id", num_buckets=2)


def test_codec_corrupt_inputs_fail_loudly():
    """Empty-but-expected payloads must raise at the codec boundary,
    not decode as 'no data'."""
    from fulltextsearch_ray.codecs import (
        decode_posting_block,
        decode_posting_columns,
        encode_posting_block,
        varint_decode,
        varint_encode,
    )

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


def test_similarity_guards(ray_session, tmp_path):
    """Element-level embedding nulls fail loud; a second ANN build
    refuses to merge into a live index; >64 LSH planes rejected;
    exclude_self is optional for external query ids."""
    from fulltextsearch_ray.functions.similarity import (
        brute_force_topk,
        build_ann_index,
        lsh_bucket,
        lsh_hyperplanes,
        query_ann_index,
    )

    # element-level null inside a list row (row-level null_count == 0)
    vecs = pa.array([[0.1, None, 0.2], [0.3, 0.4, 0.5]], pa.list_(pa.float32()))
    ds_bad = ray.data.from_arrow(
        pa.table({"vec_id": pa.array([1, 2], pa.int64()), "embedding": vecs})
    )
    with pytest.raises(Exception, match="null element"):
        brute_force_topk(ds_bad, np.array([1]), np.array([[1.0, 0.0, 0.0]]), k=2)

    # >64 hyperplanes would silently wrap to weight 0
    with pytest.raises(ValueError, match="64 hyperplanes"):
        lsh_bucket(np.ones((2, 8)), lsh_hyperplanes(8, bits=65))

    rng = np.random.default_rng(5)
    mat = rng.standard_normal((30, 8)).astype(np.float64)
    ds = ray.data.from_arrow(
        pa.table({"vec_id": pa.array(range(30), pa.int64()),
                  "embedding": pa.array([r.tolist() for r in mat], pa.list_(pa.float32()))})
    )
    idx = str(tmp_path / "ann")
    build_ann_index(ds, idx, n_clusters=4, iters=2)
    with pytest.raises(ValueError, match="already holds an index"):
        build_ann_index(ds, idx, n_clusters=4, iters=2, overwrite=False)
    build_ann_index(ds, idx, n_clusters=4, iters=2, overwrite=True)  # fine

    # external queries whose ids collide with corpus vec_ids: with
    # exclude_self=False the colliding corpus vector stays eligible
    q = mat[7:8] / np.linalg.norm(mat[7])
    with_excl = query_ann_index(idx, np.array([7]), q, k=1, nprobe=4)
    without = query_ann_index(idx, np.array([7]), q, k=1, nprobe=4, exclude_self=False)
    assert without["neighbor_id"].to_pylist() == [7]  # its own vector
    assert with_excl["neighbor_id"].to_pylist() != [7]


def test_write_synth_corpus_resumes_after_interruption(tmp_path):
    """An interrupted run must resume from finished shards, not wipe
    them (the stamp used to be written only at the end)."""
    import pyarrow.parquet as pq

    from fulltextsearch_ray.sources.corpus import write_synth_corpus

    d = str(tmp_path / "synth")
    write_synth_corpus(d, 300, rows_per_file=100)
    # simulate interruption: delete the final shard, keep the stamp
    os.remove(os.path.join(d, "part-00002.parquet"))
    first = os.path.join(d, "part-00000.parquet")
    mtime = os.path.getmtime(first)
    write_synth_corpus(d, 300, rows_per_file=100)
    assert os.path.getmtime(first) == mtime  # finished shard untouched
    assert sum(pq.ParquetFile(os.path.join(d, f)).metadata.num_rows
               for f in sorted(os.listdir(d)) if f.endswith(".parquet")) == 300


def test_shingles_matches_arrow_tokenizer_on_u0130():
    """_shingles must delegate to the SAME utf8proc tokenizer as
    shingle_batch — Python str.lower() diverges on U+0130."""
    from fulltextsearch_ray.functions.dedup import _shingles, shingle_batch

    text = "İstanbul kebap İyi"
    sh, _ = shingle_batch(pa.array([text], pa.string()), 2)
    assert set(_shingles(text, 2)) == set(sh.to_pylist())
