"""sources/corpus: global doc-id assignment and the synthetic corpus
writer."""

import os

import pyarrow as pa
import pytest
import ray.data

def test_assign_doc_ids_rejects_duplicate_keys(ray_session):
    """Duplicate id tuples got run-order-dependent doc ids (stable
    argsort tie broken by block arrival order) — silent nondeterminism
    across retries; must fail loudly."""
    from fulltextsearch_ray.sources.corpus import assign_doc_ids

    ds = ray.data.from_arrow(
        pa.table({"k": pa.array(["a", "b", "a"], pa.string()),
                  "text": pa.array(["x", "y", "z"], pa.string())})
    )
    with pytest.raises(Exception, match="duplicate id tuples"):
        assign_doc_ids(ds, ["k"]).take_all()


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
