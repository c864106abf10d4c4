"""Dedup APPLY (canonical-only filter) and benchmark contamination."""

import pyarrow as pa
import ray.data

from fulltextsearch_ray.functions.cleaning import contamination_check
from fulltextsearch_ray.functions.components import canonical_docs


def _docs(n):
    return ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(range(1, n + 1), pa.int64()),
                "text": pa.array([f"body of document {i}" for i in range(1, n + 1)], pa.string()),
            }
        )
    )


def _pairs(ps):
    return ray.data.from_arrow(
        pa.table(
            {
                "a": pa.array([p[0] for p in ps], pa.int64()),
                "b": pa.array([p[1] for p in ps], pa.int64()),
            }
        )
    )


def test_canonical_docs_broadcast_path(ray_session):
    kept = canonical_docs(_docs(6), _pairs([(1, 2), (2, 3), (5, 6)])).take_all()
    assert sorted(r["doc_id"] for r in kept) == [1, 4, 5]
    assert all(r["text"].startswith("body of") for r in kept)  # payload survives


def test_canonical_docs_distributed_path_matches(ray_session, monkeypatch):
    from fulltextsearch_ray.functions import common

    monkeypatch.setattr(common, "GATHER_BYTES", -1)  # the anti-join shuffles
    kept = canonical_docs(_docs(6), _pairs([(1, 2), (2, 3), (5, 6)])).take_all()
    assert sorted(r["doc_id"] for r in kept) == [1, 4, 5]


def test_canonical_docs_no_pairs_keeps_all(ray_session):
    kept = canonical_docs(_docs(4), _pairs([])).take_all()
    assert sorted(r["doc_id"] for r in kept) == [1, 2, 3, 4]


def test_contamination_scores(ray_session):
    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3], pa.int64()),
                "text": pa.array(
                    [
                        "the quick brown fox jumps high",  # fully in bench
                        "the quick brown cat sits low",  # partial overlap
                        "completely unrelated words here now",  # none
                    ],
                    pa.string(),
                ),
            }
        )
    )
    out = {
        r["doc_id"]: (r["contamination"], r["n_shingles"])
        for r in contamination_check(docs, ["the quick brown fox jumps high"]).take_all()
    }
    assert out[1] == (1.0, 4)
    # doc2 shares only the shingle "the quick brown" → 1 of 4
    assert out[2] == (0.25, 4)
    assert out[3] == (0.0, 3)  # 5 words → 3 trigram shingles


def test_contamination_returns_its_cpus(ray_session):
    """The scorer holds no CPU once its dataset is consumed, with the
    garbage collector off: an idle scorer actor kept alive until the
    collector frees its executor would hold a CPU the next stage waits
    for."""
    import gc
    import time

    def cpus_reach(target: float) -> float:
        deadline = time.monotonic() + 30
        while (free := ray.available_resources().get("CPU", 0)) < target and time.monotonic() < deadline:
            time.sleep(0.2)
        return free

    docs = ray.data.from_arrow(
        pa.table({"doc_id": pa.array(range(40), pa.int64()),
                  "text": [f"doc {i} says the quick brown fox" for i in range(40)]})
    ).repartition(4)
    gc.collect()  # what earlier tests left to the collector goes first
    gc.disable()
    try:
        before = cpus_reach(ray.cluster_resources()["CPU"])
        for _ in range(2):
            got = contamination_check(docs, ["the quick brown fox"]).take_all()
            assert len(got) == 40
        assert cpus_reach(before) >= before
    finally:
        gc.enable()
