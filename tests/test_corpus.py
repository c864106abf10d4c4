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


# -- composite id keys, synthetic corpus regeneration ------------------------


def test_composite_key_injective_and_order_preserving():
    """Distinct id tuples must never collide (bare-NUL join let
    ('x\\x00y','z') == ('x','y\\x00z')) and concatenated order must
    equal tuple order."""
    from fulltextsearch_ray.sources.corpus import _composite_key

    tuples = [
        ("x\x00y", "z"),
        ("x", "y\x00z"),
        ("x", "y"),
        ("x", "y\x00"),
        ("x\x00", "y"),
        ("a", "b"),
        ("a\x00b", ""),
    ]
    tbl = pa.table({"r": pa.array([t[0] for t in tuples]), "p": pa.array([t[1] for t in tuples])})
    keys = _composite_key(tbl, ["r", "p"]).to_pylist()
    assert len(set(keys)) == len(tuples)  # injective
    order_by_key = sorted(range(len(tuples)), key=lambda i: keys[i])
    order_by_tuple = sorted(range(len(tuples)), key=lambda i: tuples[i])
    assert order_by_key == order_by_tuple
    # null components fail loudly, not as a worker-task TypeError
    bad = pa.table({"r": pa.array(["a", None]), "p": pa.array(["b", "c"])})
    with pytest.raises(ValueError, match="contains nulls"):
        _composite_key(bad, ["r", "p"])


def test_write_synth_corpus_regenerates_on_param_change(tmp_path):
    import pyarrow.parquet as pq

    from fulltextsearch_ray.sources.corpus import write_synth_corpus

    d = str(tmp_path / "corpus")
    write_synth_corpus(d, 250, rows_per_file=100)
    total = sum(pq.ParquetFile(f).metadata.num_rows
                for f in sorted((tmp_path / "corpus").glob("*.parquet")))
    assert total == 250
    # growing n_rows must NOT resume onto the stale short final shard
    write_synth_corpus(d, 300, rows_per_file=100)
    total = sum(pq.ParquetFile(f).metadata.num_rows
                for f in sorted((tmp_path / "corpus").glob("*.parquet")))
    assert total == 300
    # same params = true resume (files untouched)
    mtimes = {f.name: f.stat().st_mtime_ns for f in (tmp_path / "corpus").glob("*.parquet")}
    write_synth_corpus(d, 300, rows_per_file=100)
    assert {f.name: f.stat().st_mtime_ns for f in (tmp_path / "corpus").glob("*.parquet")} == mtimes
