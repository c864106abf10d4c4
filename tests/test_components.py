"""Connected components (min-label propagation) over pair sets."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from fulltextsearch_ray.functions.components import connected_components


def _cc(pairs, ray_session=None):
    ds = ray.data.from_arrow(
        pa.table({"a": pa.array([p[0] for p in pairs], pa.int64()),
                  "b": pa.array([p[1] for p in pairs], pa.int64())})
    )
    return {r["doc_id"]: r["component"] for r in connected_components(ds).take_all()}


def test_simple_chain(ray_session):
    # 1-2-3 chain + isolated pair (10,11): two components
    got = _cc([(1, 2), (2, 3), (10, 11)])
    assert got == {1: 1, 2: 1, 3: 1, 10: 10, 11: 10}


def test_long_path_needs_propagation_rounds(ray_session):
    # a path of 20 nodes — forces multiple label-propagation rounds
    pairs = [(i, i + 1) for i in range(1, 20)]
    got = _cc(pairs)
    assert set(got.values()) == {1}
    assert len(got) == 20


def test_merging_components(ray_session):
    # two clusters bridged by one edge collapse to one label
    pairs = [(1, 2), (2, 3), (7, 8), (8, 9), (3, 7)]
    got = _cc(pairs)
    assert set(got.values()) == {1}


def test_multilevel_contraction_matches_single_task(ray_session, monkeypatch):
    # one edge per partition forces the contraction levels, and a
    # budget of -1 their shuffles: the levels + top-down resolution
    # must produce the single-task labels
    import ray.data
    from fulltextsearch_ray.functions import common
    from fulltextsearch_ray.functions.components import connected_components

    pairs = [(1, 2), (2, 3), (3, 4), (10, 11), (11, 12), (4, 10), (20, 21)]
    ds = ray.data.from_arrow(
        pa.table({"a": pa.array([p[0] for p in pairs], pa.int64()),
                  "b": pa.array([p[1] for p in pairs], pa.int64())})
    )
    monkeypatch.setattr(common, "GATHER_BYTES", -1)
    multi = {
        r["doc_id"]: r["component"]
        for r in connected_components(ds, rows_per_partition=1, num_partitions=3).take_all()
    }
    assert multi == _cc(pairs)


def test_random_graph_matches_reference(ray_session):
    rng = np.random.default_rng(5)
    n = 80
    pairs = set()
    while len(pairs) < 60:
        a, b = sorted(rng.integers(0, n, size=2).tolist())
        if a != b:
            pairs.add((a, b))
    got = _cc(sorted(pairs))

    # union-find reference
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    expect = {}
    for a, b in pairs:
        for x in (a, b):
            expect[x] = find(x)
    assert got == expect


def test_connected_components_rejects_null_ids(ray_session):
    """A null pair endpoint round-trips NaN -> INT64_MIN and becomes a
    phantom node bridging unrelated components (canonical_docs then
    kills every member) — must fail loudly at the boundary."""
    from fulltextsearch_ray.functions.components import connected_components

    pairs = ray.data.from_arrow(
        pa.table({"a": pa.array([1, None], pa.int64()), "b": pa.array([2, 3], pa.int64())})
    )
    with pytest.raises(Exception, match="null ids"):
        connected_components(pairs).take_all()
