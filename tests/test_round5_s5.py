"""Session-5 regression tests: per-file fetch-manifest persistence.
(The duplicate-doc-id build test lives in tests/test_build_invariants.py.)"""

import json
import os

import numpy as np
import pytest

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
