"""sources/corpus: global doc-id assignment."""

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
